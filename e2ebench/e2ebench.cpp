// End-to-end request-path benchmark driver: one repetition of one workload.
//
// A repetition builds the C3 testbed, registers (and, per workload, deploys)
// the services, generates a bigFlows-like request stream and replays it
// through the whole request path:
//
//   TraceRunner::replay -> HttpClient -> TcpNet -> OvsSwitch / FlowTable
//     -> packet-in -> Dispatcher / FlowMemory / scheduler
//     -> DeploymentEngine / PortProber -> Docker or Kubernetes -> response
//
// The simulator is measured from outside: the driver times calls into public
// functions and reads public counters. With --traced it also installs span
// wrappers at three public seams -- the request stream handed to replay(),
// the switch's packet-in handler (OvsSwitch::set_controller, the call
// Controller::start makes) and a scheduler registered around "proximity" --
// and reports a per-layer split. Untraced runs install no wrapper.
//
// run.py starts one process per repetition, so peak RSS belongs to one
// workload, and aggregates. This binary prints one JSON object per
// repetition on stdout. --smoke runs every workload at 1 % of its size,
// untraced and traced, and exits non-zero if any check fails.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "orchestrator/k8s/k8s_cluster.hpp"
#include "sdn/scheduler.hpp"
#include "simcore/metrics_registry.hpp"
#include "testbed/c3.hpp"
#include "workload/bigflows.hpp"
#include "workload/runner.hpp"

namespace {

using namespace tedge;

std::int64_t wall_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------------------
// Workloads. Each is chosen so that a different group of layers does most of
// the work; README.md gives the reasoning and the measured baseline.

struct Workload {
    const char* name;
    bool k8s;                 ///< Kubernetes cluster (else Docker)
    std::uint32_t services;
    std::size_t requests;
    double horizon_s;
    bool predeploy;           ///< every service deployed and ready during setup
    bool long_timeouts;       ///< switch and FlowMemory idle timeouts outlast the trace
    bool scale_down;          ///< the controller scales idle services down
    bool registry;            ///< a sim::MetricsRegistry is attached
    bool cycle_apps;          ///< services cycle the four Table-I apps (else nginx)
};

constexpr std::array<Workload, 3> kWorkloads = {{
    // Warm traffic: over 99.9 % of requests hit the exact-match flow table.
    {.name = "warm_dataplane", .k8s = false, .services = 42, .requests = 600'000,
     .horizon_s = 300, .predeploy = true, .long_timeouts = true,
     .scale_down = false, .registry = true, .cycle_apps = false},
    // The paper's per-(client, service) rate with the controller's default
    // 10 s switch timeout: most requests take the packet-in slow path.
    {.name = "flow_churn", .k8s = false, .services = 420, .requests = 56'933,
     .horizon_s = 1000, .predeploy = true, .long_timeouts = false,
     .scale_down = false, .registry = false, .cycle_apps = false},
    // Cold Kubernetes services that are deployed, scaled down after 60 s idle
    // and scaled up again: about 2.6 deployments per service.
    {.name = "k8s_lifecycle", .k8s = true, .services = 126, .requests = 25'620,
     .horizon_s = 1500, .predeploy = false, .long_timeouts = false,
     .scale_down = true, .registry = false, .cycle_apps = true},
}};

const Workload* find_workload(const std::string& name) {
    for (const auto& w : kWorkloads) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

// ---------------------------------------------------------------------------
// Spans: wall-clock intervals recorded on the benchmark's side of each seam.

enum class Layer : std::size_t {
    kSetup,
    kBuildC3,
    kRegister,
    kPredeploy,
    kGenerate,
    kReplay,
    kNext,
    kDispatch,
    kSchedule,
    kCount
};

constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames = {
    "bench.setup",          "testbed.build_c3", "core.register_services",
    "core.predeploy",       "workload.generate", "workload.replay",
    "workload.next",        "sdn.dispatch",     "sdn.schedule"};

/// Single-threaded span recorder (the simulation kernel is single-threaded).
/// Every span feeds its layer's aggregate; the first `keep` spans are also
/// kept verbatim and written as a Chrome trace when the run ends.
class SpanLog {
public:
    struct Stats {
        std::uint64_t count = 0;
        std::int64_t total_ns = 0;
        std::int64_t self_ns = 0;
        std::vector<float> self_samples;  ///< per-span self time, for p99
    };

    explicit SpanLog(std::size_t keep) : keep_(keep) {}

    void open(Layer layer) { stack_.push_back({layer, wall_ns(), next_id_++, 0}); }

    void close() {
        const std::int64_t end = wall_ns();
        const Open top = stack_.back();
        stack_.pop_back();
        const std::int64_t duration = end - top.start;
        const std::int64_t self = duration - top.child_ns;
        std::uint64_t parent = 0;
        if (!stack_.empty()) {
            stack_.back().child_ns += duration;
            parent = stack_.back().id;
        }
        auto& s = stats_[static_cast<std::size_t>(top.layer)];
        ++s.count;
        s.total_ns += duration;
        s.self_ns += self;
        s.self_samples.push_back(static_cast<float>(self));
        // Setup and replay spans are few and always kept; the bound applies
        // to the per-request layers (Layer::kNext and after).
        if (top.layer < Layer::kNext || records_.size() < keep_) {
            records_.push_back({top.layer, top.start, end, top.id, parent});
        } else {
            ++dropped_;
        }
    }

    [[nodiscard]] const Stats& stats(Layer layer) const {
        return stats_[static_cast<std::size_t>(layer)];
    }

    /// Chrome trace_event JSON (load in chrome://tracing or Perfetto).
    void write_chrome_trace(std::ostream& os) const {
        std::int64_t first = records_.empty() ? 0 : records_.front().start;
        for (const auto& r : records_) first = std::min(first, r.start);
        os << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const auto& r = records_[i];
            char line[256];
            std::snprintf(line, sizeof line,
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                          ",\"parent\":%" PRIu64 "}}",
                          i == 0 ? "" : ",\n",
                          kLayerNames[static_cast<std::size_t>(r.layer)],
                          static_cast<double>(r.start - first) / 1e3,
                          static_cast<double>(r.end - r.start) / 1e3, r.id, r.parent);
            os << line;
        }
        os << "],\"otherData\":{\"spans_dropped\":" << dropped_ << "}}\n";
    }

private:
    struct Open {
        Layer layer;
        std::int64_t start;
        std::uint64_t id;
        std::int64_t child_ns;
    };
    struct Record {
        Layer layer;
        std::int64_t start;
        std::int64_t end;
        std::uint64_t id;
        std::uint64_t parent;  ///< 0 = root
    };

    std::size_t keep_;
    std::vector<Open> stack_;
    std::vector<Record> records_;
    std::array<Stats, static_cast<std::size_t>(Layer::kCount)> stats_;
    std::uint64_t next_id_ = 1;
    std::uint64_t dropped_ = 0;
};

/// RAII span; a null log records nothing (untraced runs).
class Span {
public:
    Span(SpanLog* log, Layer layer) : log_(log) {
        if (log_ != nullptr) log_->open(layer);
    }
    ~Span() {
        if (log_ != nullptr) log_->close();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    SpanLog* log_;
};

// ---------------------------------------------------------------------------
// Traced-run wrappers.

constexpr const char* kTracedScheduler = "e2ebench_traced_proximity";

/// "proximity", with a span around every decision.
class TracedScheduler final : public sdn::GlobalScheduler {
public:
    TracedScheduler(std::unique_ptr<sdn::GlobalScheduler> inner, SpanLog& log)
        : inner_(std::move(inner)), log_(log) {}

    [[nodiscard]] const std::string& name() const override { return inner_->name(); }

    [[nodiscard]] sdn::ScheduleResult decide(const sdn::ScheduleContext& ctx) override {
        Span span(&log_, Layer::kSchedule);
        return inner_->decide(ctx);
    }

private:
    std::unique_ptr<sdn::GlobalScheduler> inner_;
    SpanLog& log_;
};

/// High-water marks sampled at every packet-in and request arrival.
struct Gauges {
    std::size_t flow_entries_max = 0;
    std::size_t buffered_max = 0;
    std::size_t k8s_objects_max = 0;
};

/// The stream handed to TraceRunner::replay in traced runs: a span around
/// every next() and a gauge sample at every arrival.
class TracedStream final : public workload::RequestStream {
public:
    TracedStream(workload::RequestStream& inner, SpanLog& log,
                 std::function<void()> sample)
        : inner_(inner), log_(log), sample_(std::move(sample)) {}

    std::optional<workload::TraceEvent> next() override {
        sample_();
        std::optional<workload::TraceEvent> event;
        {
            Span span(&log_, Layer::kNext);
            event = inner_.next();
        }
        if (event) ++issued_;
        return event;
    }
    [[nodiscard]] std::uint32_t service_count() const override {
        return inner_.service_count();
    }
    [[nodiscard]] std::uint32_t client_count() const override {
        return inner_.client_count();
    }
    [[nodiscard]] std::optional<std::size_t> total() const override {
        return inner_.total();
    }
    [[nodiscard]] std::optional<sim::SimTime> horizon() const override {
        return inner_.horizon();
    }
    [[nodiscard]] std::size_t issued() const { return issued_; }

private:
    workload::RequestStream& inner_;
    SpanLog& log_;
    std::function<void()> sample_;
    std::size_t issued_ = 0;
};

// ---------------------------------------------------------------------------
// Output helpers.

/// FNV-1a over every simulated outcome; equal digests mean equal model output.
class Digest {
public:
    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }
    void add(const std::string& s) {
        add(s.size());
        for (const unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ull;
        }
    }
    void add(sim::SimTime t) { add(static_cast<std::uint64_t>(t.ns())); }
    [[nodiscard]] std::string hex() const {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
        return buf;
    }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Nearest-rank percentile; 0 for an empty set.
template <typename T>
double percentile(std::vector<T> values, double q) {
    if (values.empty()) return 0;
    const auto rank = static_cast<std::size_t>(
        std::max(0.0, std::ceil(q * static_cast<double>(values.size())) - 1));
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                     values.end());
    return static_cast<double>(values[rank]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Flat JSON object writer: numbers at full precision, strings unescaped
/// (every string written is an identifier or hex digest).
class JsonObject {
public:
    JsonObject& num(const std::string& key, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    JsonObject& integer(const std::string& key, std::uint64_t v) {
        return raw(key, std::to_string(v));
    }
    JsonObject& boolean(const std::string& key, bool v) {
        return raw(key, v ? "true" : "false");
    }
    JsonObject& str(const std::string& key, const std::string& v) {
        return raw(key, "\"" + v + "\"");
    }
    JsonObject& raw(const std::string& key, const std::string& json) {
        os_ << (first_ ? "" : ",") << "\"" << key << "\":" << json;
        first_ = false;
        return *this;
    }
    [[nodiscard]] std::string text() const { return "{" + os_.str() + "}"; }

private:
    std::ostringstream os_;
    bool first_ = true;
};

// ---------------------------------------------------------------------------
// Host-speed reference: fixed work of the simulator's kind that calls no
// simulator code -- hashing, hash-map inserts and lookups and sorting, then
// string-keyed ordered-map updates, shared_ptr captures and std::function
// calls. run.py times it in its own process between repetitions and scales
// the measured times by it, so that host drift under other tenants' load
// cancels while a change to the simulator does not.

std::uint64_t reference_sink = 0;

double reference_seconds(int rounds) {
    const std::int64_t t0 = wall_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (int round = 0; round < rounds; ++round) {
        std::unordered_map<std::uint64_t, std::uint64_t> map;
        std::vector<std::uint64_t> keys;
        for (int i = 0; i < 60'000; ++i) {
            keys.push_back(next());
            map[keys.back() & 0xfffff] += keys.back();
        }
        std::sort(keys.begin(), keys.end());
        for (const auto k : keys) reference_sink += map.count(k & 0xfffff);

        std::map<std::string, std::uint64_t> by_name;
        std::vector<std::function<void()>> calls;
        for (int i = 0; i < 20'000; ++i) {
            by_name["svc" + std::to_string(next() % 5000)] += 1;
            calls.emplace_back([value = std::make_shared<std::uint64_t>(x)] {
                reference_sink += *value;
            });
            if (calls.size() == 64) {
                for (const auto& call : calls) call();
                calls.clear();
            }
        }
    }
    return static_cast<double>(wall_ns() - t0) / 1e9;
}

// ---------------------------------------------------------------------------
// One repetition.

struct RunOptions {
    const Workload* workload = nullptr;
    std::uint64_t seed = 1;
    bool traced = false;
    bool registry = false;   ///< attach a sim::MetricsRegistry
    double scale = 1.0;      ///< share of the workload's requests and horizon
    std::string trace_out;   ///< Chrome trace path (traced runs)
};

struct RunResult {
    std::string json;
    std::string digest;
    bool correct = false;
};

/// Counters read before and after replay; the deltas belong to replay.
struct Counters {
    std::uint64_t events = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t refiled = 0;
    std::uint64_t packet_ins = 0;
    std::uint64_t memory_hits = 0;
    std::uint64_t memory_misses = 0;
    std::uint64_t table_hits = 0;
    std::uint64_t table_misses = 0;
    std::uint64_t requests_started = 0;
    std::uint64_t probes = 0;
    std::uint64_t scale_downs = 0;
    std::uint64_t api_requests = 0;
    std::size_t deployment_records = 0;

    static Counters read(core::EdgePlatform& p,
                         const orchestrator::k8s::K8sCluster* k8s) {
        Counters c;
        auto& sim = p.simulation();
        c.events = sim.events_executed();
        c.scheduled = sim.total_scheduled();
        c.refiled = sim.wheel_cascade_stats().refiled;
        auto& ctl = p.controller();
        c.packet_ins = ctl.dispatcher().stats().packet_ins;
        c.memory_hits = ctl.flow_memory().hits();
        c.memory_misses = ctl.flow_memory().misses();
        c.table_hits = p.ingress().table().hit_count();
        c.table_misses = p.ingress().table().miss_count();
        c.requests_started = p.network().requests_started();
        c.probes = p.prober().probes_sent();
        c.scale_downs = ctl.idle_scale_downs();
        c.api_requests = k8s != nullptr ? k8s->api().request_count() : 0;
        c.deployment_records = p.deployment_engine().records().size();
        return c;
    }
};

RunResult run_once(const RunOptions& opt) {
    const Workload& w = *opt.workload;
    std::unique_ptr<SpanLog> log;
    if (opt.traced) log = std::make_unique<SpanLog>(50'000);
    SpanLog* spans = log.get();

    const auto requests = static_cast<std::size_t>(
        std::llround(static_cast<double>(w.requests) * opt.scale));
    const sim::SimTime horizon = sim::from_seconds(w.horizon_s * opt.scale);

    // The registry is declared before the testbed so it outlives every
    // component that may still hold the simulation's pointer to it.
    sim::MetricsRegistry registry;
    Gauges gauges;

    // ---- setup: from workload start to the first replayed request --------
    const std::int64_t t_start = wall_ns();
    std::int64_t generate_ns = 0;
    std::unique_ptr<testbed::C3Testbed> tb;
    std::vector<net::ServiceAddress> addresses;
    std::vector<sim::Bytes> request_sizes;
    std::vector<const orchestrator::ServiceSpec*> specs;
    std::unique_ptr<workload::BigFlowsStream> stream;
    {
        Span setup(spans, Layer::kSetup);

        testbed::C3Options c3;
        c3.seed = opt.seed;
        c3.with_docker = !w.k8s;
        c3.with_k8s = w.k8s;
        c3.controller.scheduler =
            opt.traced ? kTracedScheduler : sdn::kProximityScheduler;
        c3.controller.scale_down_idle = w.scale_down;
        if (w.long_timeouts) {
            const sim::SimTime idle =
                sim::from_seconds(2 * w.horizon_s * opt.scale + 60);
            c3.controller.dispatcher.switch_idle_timeout = idle;
            c3.controller.flow_memory.idle_timeout = idle;
            c3.controller.flow_memory.scan_period = sim::seconds(60);
        }
        if (opt.traced) {
            // Re-registered by every traced run: the controller built below
            // is the only caller, and it must record into this run's log.
            sdn::SchedulerRegistry::instance().register_factory(
                kTracedScheduler, [spans](const yamlite::Node& params) {
                    return std::make_unique<TracedScheduler>(
                        sdn::SchedulerRegistry::instance().create(
                            sdn::kProximityScheduler, params),
                        *spans);
                });
        }
        {
            Span s(spans, Layer::kBuildC3);
            tb = testbed::build_c3(c3);
        }
        auto& platform = tb->platform;
        if (opt.registry) platform.simulation().set_metrics(&registry);

        {
            Span s(spans, Layer::kRegister);
            const auto& apps = testbed::table1_services();
            const auto& nginx = testbed::service_by_key("nginx");
            const std::uint32_t base = net::Ipv4{203, 0, 120, 10}.value();
            for (std::uint32_t i = 0; i < w.services; ++i) {
                const auto& app = w.cycle_apps ? apps[i % apps.size()] : nginx;
                const net::ServiceAddress address{net::Ipv4{base + i},
                                                  app.address.port};
                specs.push_back(&platform.register_service(address, app.yaml).spec);
                addresses.push_back(address);
                request_sizes.push_back(app.request_size);
            }
        }

        if (w.predeploy) {
            Span s(spans, Layer::kPredeploy);
            auto& cluster = *platform.clusters().front();
            std::size_t remaining = specs.size();
            std::size_t failed = 0;
            for (const auto* spec : specs) {
                platform.deployment_engine().ensure(
                    cluster, *spec, {},
                    [&](bool ok, const orchestrator::InstanceInfo&) {
                        if (!ok) ++failed;
                        --remaining;
                    });
            }
            platform.simulation().run_while([&] { return remaining > 0; });
            if (remaining != 0 || failed != 0) {
                throw std::runtime_error("pre-deployment did not complete");
            }
        }

        {
            Span s(spans, Layer::kGenerate);
            const std::int64_t t0 = wall_ns();
            workload::BigFlowsOptions bf;
            bf.services = w.services;
            bf.requests = requests;
            bf.horizon = horizon;
            bf.clients = static_cast<std::uint32_t>(tb->clients.size());
            bf.min_requests = std::min<std::size_t>(20, requests / w.services);
            bf.seed = opt.seed;
            stream = std::make_unique<workload::BigFlowsStream>(bf);
            generate_ns = wall_ns() - t0;
        }
    }
    const std::int64_t t_setup_end = wall_ns();

    auto& platform = tb->platform;
    auto* k8s = dynamic_cast<orchestrator::k8s::K8sCluster*>(tb->k8s);
    auto& cluster = *platform.clusters().front();

    // Readiness before replay (warm workloads deploy everything in setup).
    bool all_ready_before = true;
    for (const auto* spec : specs) {
        const auto instances = cluster.instances(spec->name);
        all_ready_before = all_ready_before &&
                           std::any_of(instances.begin(), instances.end(),
                                       [](const auto& i) { return i.ready; });
    }

    // ---- replay ------------------------------------------------------------
    const auto sample = [&] {
        gauges.flow_entries_max =
            std::max(gauges.flow_entries_max, platform.ingress().table().size());
        gauges.buffered_max =
            std::max(gauges.buffered_max, platform.ingress().buffered_packets());
        if (k8s != nullptr) {
            gauges.k8s_objects_max =
                std::max(gauges.k8s_objects_max,
                         k8s->api().pods().size() + k8s->api().services().size());
        }
    };
    std::unique_ptr<TracedStream> traced_stream;
    workload::RequestStream* replay_stream = stream.get();
    if (opt.traced) {
        traced_stream = std::make_unique<TracedStream>(*stream, *spans, sample);
        replay_stream = traced_stream.get();
        auto& dispatcher = platform.controller().dispatcher();
        platform.ingress().set_controller([&, spans](const net::PacketIn& event) {
            sample();
            Span span(spans, Layer::kDispatch);
            dispatcher.handle_packet_in(event);
        });
    }

    workload::TraceRunner runner(platform, tb->clients);
    workload::TraceReplayOptions replay;
    replay.addresses = addresses;
    replay.request_sizes = request_sizes;

    const Counters before = Counters::read(platform, k8s);
    const std::int64_t t_replay = wall_ns();
    {
        Span span(spans, Layer::kReplay);
        runner.replay(*replay_stream, replay);
    }
    const std::int64_t t_replay_end = wall_ns();
    const Counters after = Counters::read(platform, k8s);

    // ---- outputs and checks ------------------------------------------------
    const auto& records = runner.metrics().records();
    const auto& deployments = platform.deployment_engine().records();
    const std::size_t trace_length = stream->total().value_or(0);

    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    Digest digest;
    std::map<std::string, std::size_t> first_by_service;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto& r = records[i];
        (r.ok ? ok : failed) += 1;
        digest.add(r.service);
        digest.add(r.client);
        digest.add(r.sent);
        digest.add(r.ok ? 1 : 0);
        digest.add(r.time_total);
        digest.add(r.served_by.value);
        const auto [it, inserted] = first_by_service.try_emplace(r.service, i);
        if (!inserted && r.sent < records[it->second].sent) it->second = i;
    }
    std::vector<double> first_ms;
    std::vector<double> warm_ms;
    {
        std::vector<bool> is_first(records.size(), false);
        for (const auto& [service, index] : first_by_service) is_first[index] = true;
        for (std::size_t i = 0; i < records.size(); ++i) {
            if (!records[i].ok) continue;
            (is_first[i] ? first_ms : warm_ms).push_back(records[i].time_total.ms());
        }
    }

    std::uint64_t replay_deployments = 0;
    std::uint64_t deploy_failures = 0;
    std::uint64_t pulls = 0;
    std::set<std::string> deployed_ok;
    for (std::size_t i = 0; i < deployments.size(); ++i) {
        const auto& d = deployments[i];
        digest.add(d.service);
        digest.add(d.cluster);
        digest.add(d.started);
        digest.add(d.finished);
        digest.add(d.phases.pull);
        digest.add(d.phases.create);
        digest.add(d.phases.scale_up);
        digest.add(d.phases.wait_ready);
        digest.add((d.phases.pulled ? 1u : 0u) | (d.phases.created ? 2u : 0u) |
                   (d.phases.scaled ? 4u : 0u) | (d.ok ? 8u : 0u));
        digest.add(static_cast<std::uint64_t>(d.admission));
        if (d.ok) deployed_ok.insert(d.service);
        if (i < before.deployment_records) continue;
        ++replay_deployments;
        if (!d.ok) ++deploy_failures;
        if (d.phases.pulled) ++pulls;
    }

    std::vector<std::pair<std::string, bool>> checks;
    const std::uint64_t started = after.requests_started - before.requests_started;
    checks.emplace_back("requests_conserved",
                        trace_length == requests && records.size() == trace_length &&
                            ok + failed == trace_length && started == trace_length &&
                            runner.metrics().failures() == failed &&
                            (!traced_stream ||
                             traced_stream->issued() == trace_length));
    if (w.predeploy) {
        checks.emplace_back("services_ready_before_replay", all_ready_before);
    } else {
        bool every_deployed = true;
        for (const auto* spec : specs) {
            every_deployed = every_deployed && deployed_ok.count(spec->name) > 0;
        }
        checks.emplace_back("every_service_deployed", every_deployed);
    }
    bool correct = true;
    JsonObject check_json;
    for (const auto& [name, passed] : checks) {
        check_json.boolean(name, passed);
        correct = correct && passed;
    }

    const double n = static_cast<double>(records.size());
    const auto delta = [&](std::uint64_t Counters::*field) {
        return static_cast<double>(after.*field - before.*field);
    };
    const double events = delta(&Counters::events);
    const double deploys = static_cast<double>(replay_deployments);
    JsonObject sim_out;
    sim_out.num("first_request_p50_ms", percentile(first_ms, 0.50))
        .num("first_request_p99_ms", percentile(first_ms, 0.99))
        .num("warm_request_p50_ms", percentile(warm_ms, 0.50))
        .num("warm_request_p99_ms", percentile(warm_ms, 0.99))
        .integer("deployments", replay_deployments);

    // Per-layer counters: deterministic at a fixed seed, read in every run.
    JsonObject layer;
    const double memory_hits = delta(&Counters::memory_hits);
    const double table_misses = delta(&Counters::table_misses);
    layer.num("sdn.packet_in_share", ratio(delta(&Counters::packet_ins), n))
        .num("sdn.flow_memory.hit_ratio",
             ratio(memory_hits, memory_hits + delta(&Counters::memory_misses)))
        .num("net.flow_table.miss_ratio",
             ratio(table_misses, table_misses + delta(&Counters::table_hits)))
        .integer("core.deployments", replay_deployments)
        .integer("core.deploy_failures", deploy_failures)
        .num("core.probes_per_deployment", ratio(delta(&Counters::probes), deploys))
        .num("core.scale_downs", delta(&Counters::scale_downs))
        .num("orchestrator.k8s.api_requests_per_deployment",
             ratio(delta(&Counters::api_requests), deploys))
        .integer("container.pulls", pulls)
        .num("simcore.events_per_request", ratio(events, n))
        .num("simcore.cancelled_share", 1 - ratio(events, delta(&Counters::scheduled)))
        .num("simcore.cascade_refiled_per_event",
             ratio(delta(&Counters::refiled), events));

    // Per-layer times and high-water marks: traced runs only.
    JsonObject span_json;
    if (opt.traced) {
        layer.integer("net.flow_table.entries_max", gauges.flow_entries_max)
            .integer("net.switch.buffered_max", gauges.buffered_max)
            .integer("orchestrator.k8s.objects_max", gauges.k8s_objects_max);
        const auto& next = spans->stats(Layer::kNext);
        const auto& dispatch = spans->stats(Layer::kDispatch);
        const auto& schedule = spans->stats(Layer::kSchedule);
        const auto& whole = spans->stats(Layer::kReplay);
        layer.num("workload.next_ns", ratio(static_cast<double>(next.total_ns),
                                            static_cast<double>(next.count)))
            .num("sdn.dispatch_ns", ratio(static_cast<double>(dispatch.self_ns),
                                          static_cast<double>(dispatch.count)))
            .num("sdn.dispatch_ns.p99", percentile(dispatch.self_samples, 0.99))
            .num("sdn.schedule_ns", ratio(static_cast<double>(schedule.total_ns),
                                          static_cast<double>(schedule.count)))
            .num("simcore.unattributed_share",
                 ratio(static_cast<double>(whole.self_ns),
                       static_cast<double>(whole.total_ns)));
        for (std::size_t i = 0; i < kLayerNames.size(); ++i) {
            const auto& s = spans->stats(static_cast<Layer>(i));
            JsonObject row;
            row.integer("count", s.count)
                .integer("total_ns", static_cast<std::uint64_t>(s.total_ns))
                .integer("self_ns", static_cast<std::uint64_t>(s.self_ns))
                .num("p99_self_ns", percentile(s.self_samples, 0.99));
            span_json.raw(kLayerNames[i], row.text());
        }
        if (!opt.trace_out.empty()) {
            std::ofstream os(opt.trace_out);
            spans->write_chrome_trace(os);
            if (!os) throw std::runtime_error("cannot write " + opt.trace_out);
        }
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    JsonObject out;
    out.str("workload", w.name)
        .integer("seed", opt.seed)
        .boolean("traced", opt.traced)
        .boolean("registry", opt.registry)
        .num("setup_s", static_cast<double>(t_setup_end - t_start) / 1e9)
        .num("generate_s", static_cast<double>(generate_ns) / 1e9)
        .num("replay_s", static_cast<double>(t_replay_end - t_replay) / 1e9)
        .integer("requests", records.size())
        .integer("requests_failed", failed)
        .num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
        .str("sim_digest", digest.hex())
        .raw("sim", sim_out.text())
        .boolean("correct", correct)
        .raw("checks", check_json.text())
        .raw("layer", layer.text())
        .integer("hardware_concurrency", std::thread::hardware_concurrency())
        .str("build_type", E2EBENCH_BUILD_TYPE)
        .str("compiler", E2EBENCH_COMPILER);
    if (opt.traced) out.raw("spans", span_json.text());
    return {out.text(), digest.hex(), correct};
}

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " --workload NAME [--seed N] [--traced] [--registry on|off]"
                 " [--trace-out PATH]\n"
                 "       "
              << argv0 << " --smoke | --reference\n"
              << "workloads:";
    for (const auto& w : kWorkloads) std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    RunOptions opt;
    std::optional<bool> registry;
    bool smoke = false;
    bool reference = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
                return argv[++i];
            };
            if (arg == "--workload") {
                const std::string name = value();
                opt.workload = find_workload(name);
                if (opt.workload == nullptr) {
                    throw std::invalid_argument("unknown workload " + name);
                }
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value());
            } else if (arg == "--traced") {
                opt.traced = true;
            } else if (arg == "--registry") {
                const std::string v = value();
                if (v != "on" && v != "off") {
                    throw std::invalid_argument("--registry takes on or off");
                }
                registry = v == "on";
            } else if (arg == "--trace-out") {
                opt.trace_out = value();
            } else if (arg == "--smoke") {
                smoke = true;
            } else if (arg == "--reference") {
                reference = true;
            } else {
                throw std::invalid_argument("unknown argument " + arg);
            }
        }
    } catch (const std::exception& e) {
        std::cerr << "e2ebench: " << e.what() << "\n";
        return usage(argv[0]);
    }

    try {
        if (smoke) {
            // Every workload at 1 % of its size, untraced and traced: the
            // checks must pass and tracing must not change the model output.
            bool all_ok = true;
            for (const auto& w : kWorkloads) {
                RunOptions o;
                o.workload = &w;
                o.scale = 0.01;
                o.registry = w.registry;
                const RunResult plain = run_once(o);
                o.traced = true;
                const RunResult traced = run_once(o);
                const bool ok =
                    plain.correct && traced.correct && plain.digest == traced.digest;
                std::cout << (ok ? "ok   " : "FAIL ") << w.name << " " << plain.json
                          << "\n";
                all_ok = all_ok && ok;
            }
            return all_ok ? 0 : 1;
        }
        if (reference) {
            (void)reference_seconds(1);  // fault in the allocator's pages
            std::cout << JsonObject{}.num("reference_s", reference_seconds(4)).text()
                      << "\n";
            return 0;
        }
        if (opt.workload == nullptr) return usage(argv[0]);
        opt.registry = registry.value_or(opt.workload->registry);
        const RunResult result = run_once(opt);
        std::cout << result.json << "\n";
        return result.correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "e2ebench: " << e.what() << "\n";
        return 1;
    }
}
