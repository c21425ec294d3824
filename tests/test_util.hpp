// Shared test helpers: a scriptable fake Cluster for scheduler and
// dispatcher unit tests.
#pragma once

#include <string>
#include <vector>

#include "orchestrator/cluster.hpp"

namespace tedge::testutil {

class FakeCluster final : public orchestrator::Cluster {
public:
    FakeCluster(std::string name, net::NodeId location)
        : name_(std::move(name)), location_(location) {}

    [[nodiscard]] const std::string& name() const override { return name_; }
    [[nodiscard]] net::NodeId location() const override { return location_; }

    void ensure_image(const orchestrator::ServiceSpec&, PullCallback done) override {
        ++pulls;
        done(!fail_pull, {});
    }
    [[nodiscard]] bool has_image(const orchestrator::ServiceSpec&) const override {
        return image_cached;
    }
    void create_service(const orchestrator::ServiceSpec& spec,
                        BoolCallback done) override {
        ++creates;
        created_services.push_back(spec.name);
        done(!fail_create);
    }
    [[nodiscard]] bool has_service(const std::string& name) const override {
        for (const auto& s : created_services) {
            if (s == name) return true;
        }
        return false;
    }
    void scale_up(const std::string&, BoolCallback done) override {
        ++scale_ups;
        done(!fail_scale);
    }
    void scale_down(const std::string&, BoolCallback done) override {
        ++scale_downs;
        done(true);
    }
    void remove_service(const std::string&, BoolCallback done) override {
        ++removes;
        done(true);
    }
    void delete_image(const orchestrator::ServiceSpec&) override { ++deletes; }
    void append_instances(const std::string& name,
                          std::vector<orchestrator::InstanceInfo>& out) const override {
        for (const auto& i : instance_list) {
            if (i.service == name) out.push_back(i);
        }
    }
    [[nodiscard]] std::size_t total_instances() const override {
        return instance_list.size();
    }

    /// Convenience: add an instance of `service` at this cluster's location.
    void add_instance(const std::string& service, bool ready,
                      std::uint16_t port = 8080) {
        FakeInstance info;
        info.service = service;
        info.node = location_;
        info.port = port;
        info.ready = ready;
        instance_list.push_back(info);
    }

    // Scriptable state.
    bool image_cached = false;
    bool fail_pull = false;
    bool fail_create = false;
    bool fail_scale = false;
    /// An instance plus the service it belongs to (InstanceInfo carries no
    /// service name: a cluster answers instances() for one name at a time).
    struct FakeInstance : orchestrator::InstanceInfo {
        std::string service;
    };
    std::vector<FakeInstance> instance_list;
    std::vector<std::string> created_services;
    int pulls = 0, creates = 0, scale_ups = 0, scale_downs = 0, removes = 0,
        deletes = 0;

private:
    std::string name_;
    net::NodeId location_;
};

} // namespace tedge::testutil
