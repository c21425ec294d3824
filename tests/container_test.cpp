// Container substrate tests: image references/layers, the content-addressed
// store, registries, the pull engine, and the container runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "container/image.hpp"
#include "container/image_store.hpp"
#include "container/puller.hpp"
#include "container/registry.hpp"
#include "container/runtime.hpp"
#include "reply_callbacks.hpp"
#include "simcore/random.hpp"

namespace tedge::container {
namespace {

using sim::milliseconds;
using sim::seconds;

// ------------------------------------------------------------------- image

struct RefCase {
    const char* text;
    const char* registry;
    const char* repository;
    const char* tag;
};

class ImageRefParse : public ::testing::TestWithParam<RefCase> {};

TEST_P(ImageRefParse, ParsesDockerStyleReferences) {
    const auto& c = GetParam();
    const auto ref = ImageRef::parse(c.text);
    ASSERT_TRUE(ref) << c.text;
    EXPECT_EQ(ref->registry, c.registry);
    EXPECT_EQ(ref->repository, c.repository);
    EXPECT_EQ(ref->tag, c.tag);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ImageRefParse,
    ::testing::Values(
        RefCase{"nginx", "docker.io", "library/nginx", "latest"},
        RefCase{"nginx:1.23.2", "docker.io", "library/nginx", "1.23.2"},
        RefCase{"josefhammer/web-asm:amd64", "docker.io", "josefhammer/web-asm",
                "amd64"},
        RefCase{"gcr.io/tensorflow-serving/resnet", "gcr.io",
                "tensorflow-serving/resnet", "latest"},
        RefCase{"localhost/foo:v1", "localhost", "foo", "v1"},
        RefCase{"registry.local:5000/team/app:2", "registry.local:5000", "team/app",
                "2"}));

TEST(ImageRef, RejectsMalformed) {
    EXPECT_FALSE(ImageRef::parse(""));
    EXPECT_FALSE(ImageRef::parse("nginx:"));
}

TEST(ImageRef, FullAndShortForms) {
    const auto ref = ImageRef::parse("nginx:1.23.2");
    EXPECT_EQ(ref->full(), "docker.io/library/nginx:1.23.2");
    EXPECT_EQ(ref->str(), "nginx:1.23.2");
    const auto gcr = ImageRef::parse("gcr.io/tensorflow-serving/resnet");
    EXPECT_EQ(gcr->str(), "gcr.io/tensorflow-serving/resnet:latest");
}

class MakeLayersSweep
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::size_t>> {};

TEST_P(MakeLayersSweep, SizesSumExactlyAndAllPositive) {
    const auto [total, count] = GetParam();
    const auto layers = make_layers("img", total, count);
    ASSERT_EQ(layers.size(), count);
    sim::Bytes sum = 0;
    for (const auto& layer : layers) {
        EXPECT_GT(layer.size, 0);
        EXPECT_FALSE(layer.digest.empty());
        sum += layer.size;
    }
    EXPECT_EQ(sum, total);
    // Digests are unique within the image.
    for (std::size_t i = 0; i < layers.size(); ++i) {
        for (std::size_t j = i + 1; j < layers.size(); ++j) {
            EXPECT_NE(layers[i].digest, layers[j].digest);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MakeLayersSweep,
                         ::testing::Values(std::pair{sim::kib(6.18), 1ul},
                                           std::pair{sim::mib(135), 6ul},
                                           std::pair{sim::mib(308), 9ul},
                                           std::pair{sim::Bytes{10}, 10ul},
                                           std::pair{sim::gib(2), 3ul}));

TEST(MakeLayers, Errors) {
    EXPECT_THROW(make_layers("x", 100, 0), std::invalid_argument);
    EXPECT_THROW(make_layers("x", 0, 1), std::invalid_argument);
}

// ------------------------------------------------------------- image store

Image test_image(const std::string& name, sim::Bytes size, std::size_t layers) {
    Image image;
    image.ref = *ImageRef::parse(name);
    image.layers = make_layers(name, size, layers);
    return image;
}

TEST(ImageStore, LayerDedupAcrossImages) {
    ImageStore store;
    auto a = test_image("a:1", sim::mib(10), 2);
    auto b = test_image("b:1", sim::mib(5), 1);
    b.layers.push_back(a.layers[0]); // shared base layer

    for (const auto& layer : a.layers) store.add_layer(layer);
    store.tag_image(a);
    const auto missing = store.missing_layers(b);
    ASSERT_EQ(missing.size(), 1u); // only b's own layer
    EXPECT_EQ(missing[0].digest, b.layers[0].digest);

    store.add_layer(b.layers[0]);
    store.tag_image(b);
    EXPECT_TRUE(store.has_image(a.ref));
    EXPECT_TRUE(store.has_image(b.ref));
    // Shared layer stored once: usage = a + b_own.
    EXPECT_EQ(store.disk_usage(), a.total_size() + b.layers[0].size);
}

TEST(ImageStore, GcKeepsSharedLayers) {
    ImageStore store;
    auto a = test_image("a:1", sim::mib(10), 2);
    auto b = test_image("b:1", sim::mib(5), 1);
    b.layers.push_back(a.layers[0]);
    for (const auto& layer : a.layers) store.add_layer(layer);
    store.add_layer(b.layers[0]);
    store.tag_image(a);
    store.tag_image(b);

    // Remove a; its non-shared layer is freed, the shared one survives.
    EXPECT_TRUE(store.remove_image(a.ref));
    const auto freed = store.gc();
    EXPECT_EQ(freed, a.layers[1].size);
    EXPECT_FALSE(store.has_image(a.ref));
    EXPECT_TRUE(store.has_image(b.ref));
    EXPECT_TRUE(store.has_layer(a.layers[0].digest)); // shared survives
    EXPECT_FALSE(store.has_layer(a.layers[1].digest));
}

TEST(ImageStore, TagRequiresLayersPresent) {
    ImageStore store;
    const auto image = test_image("x:1", sim::mib(1), 1);
    EXPECT_THROW(store.tag_image(image), std::logic_error);
    EXPECT_FALSE(store.has_image(image.ref));
    EXPECT_EQ(store.find_image(image.ref), nullptr);
}

TEST(ImageStore, HasImageIsTaggedWithAllLayersUnderRandomOps) {
    // Images drawn from one small layer pool share layers. Random add_layer /
    // tag_image / remove_image / gc sequences must keep has_image() equal to
    // "tagged and every layer present" after every step.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        sim::Rng rng(seed);
        std::vector<Layer> pool;
        for (int i = 0; i < 8; ++i) {
            pool.push_back(Layer{"sha256:layer" + std::to_string(i),
                                 static_cast<sim::Bytes>(100 * (i + 1))});
        }
        std::vector<Image> images;
        for (int i = 0; i < 6; ++i) {
            Image image;
            image.ref = *ImageRef::parse("img" + std::to_string(i) + ":1");
            std::set<std::size_t> picked;
            const auto layers = rng.uniform_int(1, 4);
            while (static_cast<std::int64_t>(picked.size()) < layers) {
                picked.insert(static_cast<std::size_t>(rng.uniform_int(0, 7)));
            }
            for (const auto p : picked) image.layers.push_back(pool[p]);
            images.push_back(image);
        }

        ImageStore store;
        std::set<std::size_t> tagged;
        const auto complete = [&](const Image& image) {
            return std::all_of(image.layers.begin(), image.layers.end(),
                               [&](const Layer& l) { return store.has_layer(l.digest); });
        };
        for (int step = 0; step < 400; ++step) {
            const auto op = rng.uniform_int(0, 99);
            const auto i = static_cast<std::size_t>(rng.uniform_int(0, 5));
            if (op < 40) {
                store.add_layer(pool[static_cast<std::size_t>(rng.uniform_int(0, 7))]);
            } else if (op < 65) {
                if (complete(images[i])) {
                    store.tag_image(images[i]);
                    tagged.insert(i);
                } else {
                    EXPECT_THROW(store.tag_image(images[i]), std::logic_error);
                }
            } else if (op < 85) {
                EXPECT_EQ(store.remove_image(images[i].ref), tagged.erase(i) > 0);
            } else {
                store.gc();
            }
            for (std::size_t k = 0; k < images.size(); ++k) {
                const bool is_tagged = store.find_image(images[k].ref) != nullptr;
                ASSERT_EQ(is_tagged, tagged.contains(k))
                    << "seed " << seed << " step " << step;
                ASSERT_EQ(store.has_image(images[k].ref),
                          is_tagged && complete(images[k]))
                    << "seed " << seed << " step " << step << " image " << k;
            }
        }
    }
}

TEST(ImageStore, AddLayerIsIdempotent) {
    ImageStore store;
    const Layer layer{"sha256:abc", 100};
    store.add_layer(layer);
    store.add_layer(layer);
    EXPECT_EQ(store.disk_usage(), 100);
    EXPECT_EQ(store.layer_count(), 1u);
}

// ---------------------------------------------------------------- registry

TEST(Registry, ManifestFetchTakesRttPlusOverhead) {
    sim::Simulation simulation;
    RegistryProfile profile;
    profile.host = "docker.io";
    profile.rtt = milliseconds(30);
    profile.manifest_overhead = milliseconds(300);
    Registry registry(simulation, profile);
    registry.put(test_image("nginx:1", sim::mib(10), 2));

    const Image* manifest = nullptr;
    sim::SimTime at;
    registry.fetch_manifest(*ImageRef::parse("nginx:1"), [&](const Image* image) {
        manifest = image;
        at = simulation.now();
    });
    simulation.run();
    ASSERT_NE(manifest, nullptr);
    EXPECT_EQ(at, milliseconds(330));

    bool unknown_called = false;
    registry.fetch_manifest(*ImageRef::parse("nope:1"), [&](const Image* image) {
        EXPECT_EQ(image, nullptr);
        unknown_called = true;
    });
    simulation.run();
    EXPECT_TRUE(unknown_called);
}

// ------------------------------------------------------------------ puller

struct PullFixture : ::testing::Test {
    PullFixture() : registry(simulation, profile()), puller(simulation, store) {}

    static RegistryProfile profile() {
        RegistryProfile p;
        p.host = "docker.io";
        p.rtt = milliseconds(10);
        p.bandwidth = sim::mbit_per_sec(800);
        p.manifest_overhead = milliseconds(100);
        p.per_layer_overhead = milliseconds(50);
        return p;
    }

    PullTiming pull_now(const ImageRef& ref) {
        PullTiming timing;
        bool ok = false;
        puller.pull(ref, registry, [&](bool success, const PullTiming& t) {
            ok = success;
            timing = t;
        });
        simulation.run();
        EXPECT_TRUE(ok);
        return timing;
    }

    sim::Simulation simulation;
    ImageStore store;
    Registry registry;
    Puller puller;
};

TEST_F(PullFixture, PullDownloadsAllLayersAndTags) {
    const auto image = test_image("nginx:1", sim::mib(50), 4);
    registry.put(image);
    const auto timing = pull_now(image.ref);
    EXPECT_EQ(timing.layers_downloaded, 4u);
    EXPECT_EQ(timing.bytes_downloaded, image.total_size());
    EXPECT_TRUE(store.has_image(image.ref));
    EXPECT_GT(timing.duration(), milliseconds(100)); // at least the manifest
}

TEST_F(PullFixture, SecondPullIsLocalHit) {
    const auto image = test_image("nginx:1", sim::mib(50), 4);
    registry.put(image);
    pull_now(image.ref);
    const auto second = pull_now(image.ref);
    EXPECT_EQ(second.layers_downloaded, 0u);
    EXPECT_EQ(second.bytes_downloaded, 0);
    EXPECT_LE(second.duration(), milliseconds(10));
}

TEST_F(PullFixture, SharedLayersAreNotRedownloaded) {
    auto base = test_image("nginx:1", sim::mib(50), 4);
    auto derived = test_image("app:1", sim::mib(10), 1);
    derived.layers.insert(derived.layers.begin(), base.layers.begin(),
                          base.layers.end());
    registry.put(base);
    registry.put(derived);

    pull_now(base.ref);
    const auto timing = pull_now(derived.ref);
    EXPECT_EQ(timing.layers_downloaded, 1u);
    EXPECT_EQ(timing.layers_cached, 4u);
    EXPECT_EQ(timing.bytes_downloaded, sim::mib(10));
}

TEST_F(PullFixture, ConcurrentPullsOfSameImageCoalesce) {
    const auto image = test_image("nginx:1", sim::mib(50), 4);
    registry.put(image);
    int completions = 0;
    PullTiming t1, t2;
    puller.pull(image.ref, registry, [&](bool ok, const PullTiming& t) {
        EXPECT_TRUE(ok);
        t1 = t;
        ++completions;
    });
    puller.pull(image.ref, registry, [&](bool ok, const PullTiming& t) {
        EXPECT_TRUE(ok);
        t2 = t;
        ++completions;
    });
    simulation.run();
    EXPECT_EQ(completions, 2);
    // Both callbacks report the single underlying job.
    EXPECT_EQ(t1.bytes_downloaded, image.total_size());
    EXPECT_EQ(t2.bytes_downloaded, image.total_size());
}

TEST_F(PullFixture, ConcurrentPullsShareInFlightLayers) {
    auto base = test_image("nginx:1", sim::mib(50), 3);
    auto derived = test_image("app:1", sim::mib(10), 1);
    derived.layers.insert(derived.layers.begin(), base.layers.begin(),
                          base.layers.end());
    registry.put(base);
    registry.put(derived);

    PullTiming tb, td;
    puller.pull(base.ref, registry, [&](bool, const PullTiming& t) { tb = t; });
    puller.pull(derived.ref, registry, [&](bool, const PullTiming& t) { td = t; });
    simulation.run();
    // The derived pull must not download the base layers a second time.
    EXPECT_EQ(tb.layers_downloaded + td.layers_downloaded, 4u);
    EXPECT_EQ(td.layers_shared + td.layers_cached, 3u);
    EXPECT_TRUE(store.has_image(base.ref));
    EXPECT_TRUE(store.has_image(derived.ref));
}

TEST_F(PullFixture, UnknownImageFails) {
    bool called = false;
    puller.pull(*ImageRef::parse("ghost:9"), registry,
                [&](bool ok, const PullTiming&) {
                    EXPECT_FALSE(ok);
                    called = true;
                });
    simulation.run();
    EXPECT_TRUE(called);
    EXPECT_FALSE(store.has_image(*ImageRef::parse("ghost:9")));
}

TEST_F(PullFixture, MoreLayersTakeLongerAtEqualSize) {
    const auto few = test_image("few:1", sim::mib(60), 2);
    const auto many = test_image("many:1", sim::mib(60), 8);
    registry.put(few);
    registry.put(many);
    const auto t_few = pull_now(few.ref);
    const auto t_many = pull_now(many.ref);
    // Per-layer overheads make the 8-layer image slower (paper fig. 13:
    // "pull times depend on both the image's total size and its number of
    // layers").
    EXPECT_GT(t_many.duration(), t_few.duration());
}

// ----------------------------------------------------------------- runtime

struct RuntimeFixture : ::testing::Test {
    RuntimeFixture() {
        node = topo.add_host("host", net::Ipv4{10, 0, 0, 2}, 12);
        runtime = std::make_unique<ContainerRuntime>(simulation, topo, node,
                                                     endpoints, sim::Rng{1});
        app.name = "web";
        app.init_median = milliseconds(40);
        app.init_sigma = 0.1;
        app.service_median = milliseconds(1);
        app.response_size = 256;
        app.concurrency = 2;
        app.port = 80;
    }

    ContainerConfig config() {
        ContainerConfig c;
        c.name = "svc.web";
        c.image = *ImageRef::parse("web:1");
        c.app = &app;
        return c;
    }

    sim::Simulation simulation;
    net::Topology topo;
    net::EndpointDirectory endpoints;
    net::NodeId node;
    AppProfile app;
    std::unique_ptr<ContainerRuntime> runtime;
};

TEST_F(RuntimeFixture, LifecycleStatesAndPort) {
    ContainerId id = 0;
    runtime->create(config(), [&](ContainerId created) { id = created; });
    simulation.run();
    ASSERT_NE(id, 0u);
    EXPECT_EQ(runtime->info(id).state, ContainerState::kCreated);
    EXPECT_FALSE(topo.port_open(node, 8080));

    bool running = false;
    runtime->start(id, 8080, [&] { running = true; });
    simulation.run();
    EXPECT_TRUE(running);
    EXPECT_EQ(runtime->info(id).state, ContainerState::kRunning);
    EXPECT_TRUE(runtime->info(id).app_ready);
    EXPECT_TRUE(topo.port_open(node, 8080));
    EXPECT_NE(endpoints.find(node, 8080), nullptr);
    // Start cost: namespace setup dominates; app init afterwards.
    EXPECT_GT(runtime->info(id).ready_at, runtime->info(id).started_at);

    bool stopped = false;
    runtime->stop(id, [&] { stopped = true; });
    simulation.run();
    EXPECT_TRUE(stopped);
    EXPECT_EQ(runtime->info(id).state, ContainerState::kExited);
    EXPECT_FALSE(topo.port_open(node, 8080));
    EXPECT_EQ(endpoints.find(node, 8080), nullptr);

    bool removed = false;
    runtime->remove(id, [&] { removed = true; });
    simulation.run();
    EXPECT_TRUE(removed);
    EXPECT_FALSE(runtime->exists(id));
}

TEST_F(RuntimeFixture, RestartAfterStopWorks) {
    ContainerId id = 0;
    runtime->create(config(), [&](ContainerId created) { id = created; });
    simulation.run();
    runtime->start(id, 8080, [] {});
    simulation.run();
    runtime->stop(id, [] {});
    simulation.run();
    bool running = false;
    runtime->start(id, 8080, [&] { running = true; });
    simulation.run();
    EXPECT_TRUE(running);
    EXPECT_TRUE(topo.port_open(node, 8080));
}

TEST_F(RuntimeFixture, RemoveRunningContainerThrows) {
    ContainerId id = 0;
    runtime->create(config(), [&](ContainerId created) { id = created; });
    simulation.run();
    runtime->start(id, 8080, [] {});
    simulation.run();
    EXPECT_THROW(runtime->remove(id, [] {}), std::logic_error);
}

TEST_F(RuntimeFixture, DoubleStartThrows) {
    ContainerId id = 0;
    runtime->create(config(), [&](ContainerId created) { id = created; });
    simulation.run();
    runtime->start(id, 8080, [] {});
    simulation.run();
    EXPECT_THROW(runtime->start(id, 8080, [] {}), std::logic_error);
}

TEST_F(RuntimeFixture, RequestsQueueBeyondConcurrencyLimit) {
    ContainerId id = 0;
    runtime->create(config(), [&](ContainerId created) { id = created; });
    simulation.run();
    runtime->start(id, 8080, [] {});
    simulation.run();

    const auto handler = endpoints.find(node, 8080);
    ASSERT_NE(handler, nullptr);
    // Issue 4 requests at once against concurrency 2: completions come in
    // two waves of the ~1 ms service time.
    testkit::ReplyCallbacks replies;
    std::vector<sim::SimTime> completions;
    for (int i = 0; i < 4; ++i) {
        (*handler)(100, replies([&](sim::Bytes size) {
            EXPECT_EQ(size, 256);
            completions.push_back(simulation.now());
        }));
    }
    simulation.run();
    ASSERT_EQ(completions.size(), 4u);
    // The queued pair must finish strictly after the first pair.
    EXPECT_GT(completions[2], completions[0]);
    EXPECT_GT(completions[3], completions[1]);
}

TEST_F(RuntimeFixture, LabelSelectorList) {
    ContainerConfig c1 = config();
    c1.labels = {{"edge.service", "a"}, {"tier", "web"}};
    ContainerConfig c2 = config();
    c2.labels = {{"edge.service", "b"}};
    runtime->create(c1, [](ContainerId) {});
    runtime->create(c2, [](ContainerId) {});
    simulation.run();
    EXPECT_EQ(runtime->list().size(), 2u);
    EXPECT_EQ(runtime->list({{"edge.service", "a"}}).size(), 1u);
    EXPECT_EQ(runtime->list({{"edge.service", "a"}, {"tier", "web"}}).size(), 1u);
    EXPECT_EQ(runtime->list({{"edge.service", "zzz"}}).size(), 0u);
}

TEST_F(RuntimeFixture, ConcurrentStartsContendForCpu) {
    // Start many containers simultaneously on a small node: the later ones
    // must take longer than an isolated start.
    net::Topology small_topo;
    const auto small_node = small_topo.add_host("small", net::Ipv4{10, 9, 0, 1}, 2);
    ContainerRuntime small_runtime(simulation, small_topo, small_node, endpoints,
                                   sim::Rng{2});
    std::vector<ContainerId> ids;
    for (int i = 0; i < 8; ++i) {
        ContainerConfig c = config();
        c.name = "svc" + std::to_string(i);
        small_runtime.create(c, [&](ContainerId id) { ids.push_back(id); });
    }
    simulation.run();
    std::vector<sim::SimTime> started;
    const sim::SimTime t0 = simulation.now();
    for (const auto id : ids) {
        small_runtime.start(id, 0, [&, t0] { started.push_back(simulation.now() - t0); });
    }
    simulation.run();
    ASSERT_EQ(started.size(), 8u);
    const auto slowest = *std::max_element(started.begin(), started.end());
    // An isolated start is ~340 ms; with 8 concurrent starts on 2 cores the
    // slowest should be visibly inflated.
    EXPECT_GT(slowest, milliseconds(500));
}

} // namespace
} // namespace tedge::container
