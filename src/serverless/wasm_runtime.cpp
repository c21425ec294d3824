#include "serverless/wasm_runtime.hpp"

#include <stdexcept>

namespace tedge::serverless {

WasmRuntime::WasmRuntime(sim::Simulation& sim, net::Topology& topo,
                         net::NodeId node, net::EndpointDirectory& endpoints,
                         sim::Rng rng, WasmRuntimeCosts costs)
    : sim_(sim), topo_(topo), node_(node), endpoints_(endpoints), rng_(rng),
      costs_(costs) {
    reaper_ = sim_.schedule_periodic(sim::seconds(5), [this] { reap_idle(); },
                                     /*daemon=*/true);
}

WasmRuntime::~WasmRuntime() {
    reaper_.cancel();
}

void WasmRuntime::deploy(const FunctionSpec& spec, std::uint16_t gateway_port,
                         std::function<void()> done) {
    if (spec.app == nullptr) throw std::invalid_argument("function needs a profile");
    auto& fn = functions_[spec.name];
    fn.spec = spec;
    fn.gateway_port = gateway_port;
    fn.last_used = sim_.now();

    const sim::SimTime load = fn.module_loaded ? sim::SimTime::zero()
                                               : costs_.module_load;
    sim_.schedule(load, [this, name = spec.name, done = std::move(done)] {
        auto& fn = functions_.at(name);
        fn.module_loaded = true;
        topo_.open_port(node_, fn.gateway_port);
        endpoints_.bind(node_, fn.gateway_port,
                        [this, name](sim::Bytes request,
                                     net::EndpointDirectory::ReplyFn reply) {
            invoke(functions_.at(name), request, reply);
        });
        done();
    });
}

void WasmRuntime::remove(const std::string& name, std::function<void()> done) {
    const auto it = functions_.find(name);
    if (it == functions_.end()) {
        sim_.schedule(sim::SimTime::zero(), std::move(done));
        return;
    }
    topo_.close_port(node_, it->second.gateway_port);
    endpoints_.unbind(node_, it->second.gateway_port);
    functions_.erase(it);
    sim_.schedule(sim::milliseconds(1), std::move(done));
}

bool WasmRuntime::deployed(const std::string& name) const {
    return functions_.contains(name);
}

int WasmRuntime::warm_instances(const std::string& name) const {
    const auto it = functions_.find(name);
    return it == functions_.end() ? 0 : it->second.warm;
}

void WasmRuntime::prewarm(const std::string& name, int count,
                          std::function<void()> done) {
    auto& fn = functions_.at(name);
    const int to_start =
        std::min(count, fn.spec.max_instances - fn.warm - fn.busy);
    if (to_start <= 0) {
        sim_.schedule(sim::SimTime::zero(), std::move(done));
        return;
    }
    // Instantiations run concurrently; completion when the slowest is up.
    auto remaining = std::make_shared<int>(to_start);
    for (int i = 0; i < to_start; ++i) {
        const sim::SimTime cold = sim::from_seconds(rng_.lognormal_median(
            costs_.cold_start_median.seconds(), costs_.cold_start_sigma));
        sim_.schedule(cold, [this, name, remaining, done] {
            ++cold_starts_;
            ++functions_.at(name).warm;
            if (--*remaining == 0) done();
        });
    }
}

void WasmRuntime::cool_down(const std::string& name) {
    const auto it = functions_.find(name);
    if (it != functions_.end()) it->second.warm = 0;
}

void WasmRuntime::invoke(Function& fn, sim::Bytes /*request*/,
                         net::EndpointDirectory::ReplyFn reply) {
    ++invocations_;
    fn.last_used = sim_.now();
    if (fn.warm > 0) {
        --fn.warm;
        serve(fn, reply, sim::SimTime::zero());
        return;
    }
    if (fn.warm + fn.busy < fn.spec.max_instances) {
        // Cold start inline: instantiate, then serve.
        ++cold_starts_;
        const sim::SimTime cold = sim::from_seconds(rng_.lognormal_median(
            costs_.cold_start_median.seconds(), costs_.cold_start_sigma));
        serve(fn, reply, cold);
        return;
    }
    // At capacity: queue until an instance frees up.
    fn.backlog.push_back(reply);
}

void WasmRuntime::serve(Function& fn, net::EndpointDirectory::ReplyFn reply,
                        sim::SimTime extra_delay) {
    ++fn.busy;
    const sim::SimTime service = fn.spec.app->sample_service(rng_);
    sim_.schedule(extra_delay + costs_.invoke_overhead + service,
                  [this, name = fn.spec.name, reply] {
                      finish_invocation(name, reply);
                  });
}

void WasmRuntime::finish_invocation(const std::string& name,
                                    net::EndpointDirectory::ReplyFn reply) {
    auto& fn = functions_.at(name);
    --fn.busy;
    ++fn.warm; // the instance stays warm for the keep-alive window
    reply(fn.spec.app->response_size);
    if (!fn.backlog.empty()) {
        const net::EndpointDirectory::ReplyFn next = fn.backlog.front();
        fn.backlog.pop_front();
        --fn.warm;
        serve(fn, next, sim::SimTime::zero());
    }
}

void WasmRuntime::reap_idle() {
    for (auto& [name, fn] : functions_) {
        if (fn.warm > 0 && sim_.now() - fn.last_used >= costs_.keep_alive) {
            fn.warm = 0; // reclaim the idle pool
        }
    }
}

} // namespace tedge::serverless
