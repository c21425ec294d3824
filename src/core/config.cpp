#include "core/config.hpp"

#include <stdexcept>

#include "yamlite/emitter.hpp"
#include "yamlite/parser.hpp"

namespace tedge::core {
namespace {

sim::SimTime seconds_or(const yamlite::Node* node, sim::SimTime fallback) {
    if (node == nullptr) return fallback;
    if (const auto v = node->as_int()) return sim::seconds(*v);
    return fallback;
}

} // namespace

sdn::ControllerConfig parse_controller_config(const std::string& yaml_text) {
    sdn::ControllerConfig config;
    const auto doc = yamlite::parse(yaml_text);
    if (doc.is_null()) return config;
    if (!doc.is_map()) throw std::invalid_argument("controller config must be a map");

    if (const auto* scheduler = doc.find("scheduler")) {
        if (const auto* name = scheduler->find("name")) {
            config.scheduler = name->as_str(config.scheduler);
        }
        if (const auto* params = scheduler->find("params")) {
            config.scheduler_params = *params;
        }
        if (!sdn::SchedulerRegistry::instance().contains(config.scheduler)) {
            throw std::invalid_argument("unknown scheduler: " + config.scheduler);
        }
    }
    if (const auto* memory = doc.find("flow_memory")) {
        config.flow_memory.idle_timeout =
            seconds_or(memory->find("idle_timeout_s"), config.flow_memory.idle_timeout);
        config.flow_memory.scan_period =
            seconds_or(memory->find("scan_period_s"), config.flow_memory.scan_period);
    }
    if (const auto* dispatcher = doc.find("dispatcher")) {
        if (const auto* priority = dispatcher->find("flow_priority")) {
            if (const auto v = priority->as_int(); v && *v > 0 && *v <= 0xffff) {
                config.dispatcher.flow_priority = static_cast<std::uint16_t>(*v);
            }
        }
        config.dispatcher.switch_idle_timeout =
            seconds_or(dispatcher->find("switch_idle_timeout_s"),
                       config.dispatcher.switch_idle_timeout);
        if (const auto* cloud = dispatcher->find("install_cloud_flows")) {
            config.dispatcher.install_cloud_flows =
                cloud->as_bool().value_or(config.dispatcher.install_cloud_flows);
        }
    }
    if (const auto* scale_down = doc.find("scale_down_idle")) {
        config.scale_down_idle = scale_down->as_bool().value_or(config.scale_down_idle);
    }
    return config;
}

std::string emit_controller_config(const sdn::ControllerConfig& config) {
    yamlite::Node doc;
    doc["scheduler"]["name"] = yamlite::Node{config.scheduler};
    if (!config.scheduler_params.is_null()) {
        doc["scheduler"]["params"] = config.scheduler_params;
    }
    doc["flow_memory"]["idle_timeout_s"] = yamlite::Node{
        static_cast<std::int64_t>(config.flow_memory.idle_timeout.ns() / 1'000'000'000)};
    doc["flow_memory"]["scan_period_s"] = yamlite::Node{
        static_cast<std::int64_t>(config.flow_memory.scan_period.ns() / 1'000'000'000)};
    doc["dispatcher"]["flow_priority"] =
        yamlite::Node{static_cast<std::int64_t>(config.dispatcher.flow_priority)};
    doc["dispatcher"]["switch_idle_timeout_s"] = yamlite::Node{static_cast<std::int64_t>(
        config.dispatcher.switch_idle_timeout.ns() / 1'000'000'000)};
    doc["dispatcher"]["install_cloud_flows"] =
        yamlite::Node{config.dispatcher.install_cloud_flows};
    doc["scale_down_idle"] = yamlite::Node{config.scale_down_idle};
    return yamlite::emit(doc);
}

} // namespace tedge::core
