// PredictiveDeployer tests: EWMA popularity scoring, top-K pre-deployment,
// and scale-down of decayed services.
#include <gtest/gtest.h>

#include "core/edge_platform.hpp"
#include "core/predictor.hpp"

namespace tedge::core {
namespace {

using sim::milliseconds;
using sim::seconds;

struct PredictorFixture : ::testing::Test {
    PredictorFixture() {
        edge = platform.add_edge_host("edge", net::Ipv4{10, 0, 0, 2}, 12);
        platform.add_client("ue", net::Ipv4{10, 0, 1, 1});
        auto& hub = platform.add_registry({.host = "docker.io"});

        container::Image image;
        image.ref = *container::ImageRef::parse("web:1");
        image.layers = container::make_layers("web", sim::mib(5), 1);
        hub.put(image);

        container::AppProfile app;
        app.name = "web";
        app.init_median = milliseconds(10);
        app.port = 80;
        platform.add_app_profile("web:1", app);

        platform.add_docker_cluster("edge", edge);
        platform.start_controller(edge);

        for (int i = 0; i < 6; ++i) {
            net::ServiceAddress address{
                net::Ipv4{203, 0, 113, static_cast<std::uint8_t>(30 + i)}, 80};
            platform.register_service(address, R"(
kind: Deployment
spec:
  template:
    spec:
      containers:
        - name: web
          image: web:1
          ports:
            - containerPort: 80
)");
            addresses.push_back(address);
        }

        PredictorConfig config;
        config.period = seconds(5);
        config.decay = 0.5;
        config.top_k = 2;
        config.min_score = 0.5;
        predictor = std::make_unique<PredictiveDeployer>(
            platform.simulation(), platform.deployment_engine(),
            *platform.cluster("edge"), platform.service_registry(), config);
    }

    std::string name_of(std::size_t index) {
        return platform.service_registry().lookup(addresses[index])->spec.name;
    }

    core::EdgePlatform platform;
    net::NodeId edge;
    std::vector<net::ServiceAddress> addresses;
    std::unique_ptr<PredictiveDeployer> predictor;
};

TEST_F(PredictorFixture, PreDeploysTopKByPopularity) {
    // Service 0 is hot, service 1 lukewarm, the rest cold.
    for (int i = 0; i < 10; ++i) predictor->observe(addresses[0]);
    for (int i = 0; i < 3; ++i) predictor->observe(addresses[1]);
    predictor->observe(addresses[2]);

    // Assert while the lukewarm service is still above min_score: with decay
    // 0.5 per 5 s period, service 1's score (3) crosses 0.5 at t=15 and the
    // predictor would legitimately scale it back down.
    platform.simulation().run_until(seconds(12));
    const auto deployed = predictor->predeployed();
    ASSERT_EQ(deployed.size(), 2u);
    EXPECT_EQ(predictor->deploys_triggered(), 2u);

    // The hot services have ready instances before any request hits them.
    EXPECT_FALSE(platform.cluster("edge")->ready_instances(name_of(0)).empty());
    EXPECT_FALSE(platform.cluster("edge")->ready_instances(name_of(1)).empty());
    EXPECT_TRUE(platform.cluster("edge")->ready_instances(name_of(3)).empty());
    EXPECT_GT(predictor->score(name_of(0)), predictor->score(name_of(1)));
}

TEST_F(PredictorFixture, ScoresDecayAndColdServicesAreScaledDown) {
    for (int i = 0; i < 8; ++i) predictor->observe(addresses[0]);
    platform.simulation().run_until(seconds(20));
    ASSERT_FALSE(platform.cluster("edge")->ready_instances(name_of(0)).empty());

    // No further traffic: score decays 0.5x per 5 s period; after ~30 s it
    // falls below min_score and the predictor scales the service down.
    platform.simulation().run_until(seconds(90));
    EXPECT_TRUE(predictor->predeployed().empty());
    EXPECT_GE(predictor->scale_downs_triggered(), 1u);
    EXPECT_TRUE(platform.cluster("edge")->ready_instances(name_of(0)).empty());
    EXPECT_LT(predictor->score(name_of(0)), 0.5);
}

TEST_F(PredictorFixture, UnregisteredAddressesAreIgnored) {
    predictor->observe({net::Ipv4{9, 9, 9, 9}, 80});
    platform.simulation().run_until(seconds(10));
    EXPECT_TRUE(predictor->predeployed().empty());
    EXPECT_EQ(predictor->deploys_triggered(), 0u);
}

TEST_F(PredictorFixture, HotSetFollowsShiftingPopularity) {
    for (int i = 0; i < 10; ++i) predictor->observe(addresses[0]);
    platform.simulation().run_until(seconds(15));
    ASSERT_FALSE(platform.cluster("edge")->ready_instances(name_of(0)).empty());

    // Popularity shifts to services 4 and 5, with arrivals spread across the
    // whole window so their EWMA scores stay above min_score through t=120
    // while the old favourite decays out.
    for (int round = 0; round < 12; ++round) {
        platform.simulation().schedule(seconds(round * 10), [this] {
            predictor->observe(addresses[4]);
            predictor->observe(addresses[4]);
            predictor->observe(addresses[5]);
            predictor->observe(addresses[5]);
        });
    }
    platform.simulation().run_until(seconds(120));
    const auto deployed = predictor->predeployed();
    EXPECT_FALSE(platform.cluster("edge")->ready_instances(name_of(4)).empty());
    EXPECT_FALSE(platform.cluster("edge")->ready_instances(name_of(5)).empty());
    // The old favourite decayed out.
    EXPECT_TRUE(platform.cluster("edge")->ready_instances(name_of(0)).empty());
}

TEST_F(PredictorFixture, PredictedServiceAnswersFirstRequestFast) {
    for (int i = 0; i < 10; ++i) predictor->observe(addresses[0]);
    // Probe while the score (10, halving every 5 s) is still above
    // min_score; by t=25 the predictor would have scaled the service down.
    platform.simulation().run_until(seconds(12));

    net::HttpResult result;
    bool done = false;
    platform.http_request(*platform.topology().find_by_name("ue"), addresses[0],
                          100, [&](const net::HttpResult& r) {
                              result = r;
                              done = true;
                          });
    platform.simulation().run_until(platform.simulation().now() + seconds(10));
    ASSERT_TRUE(done);
    ASSERT_TRUE(result.ok) << result.error;
    // Proactively deployed: the "first" request is already a warm hit.
    EXPECT_LT(result.time_total, milliseconds(20));
}

} // namespace
} // namespace tedge::core
