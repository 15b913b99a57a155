// fleet_emulated: closed-loop request serving. Every
// tenant is a caller keeping a fixed number of requests in flight; one
// load-generator thread (this one) seals, submits, stamps completions and
// opens and checks every output.
#include <algorithm>
#include <cmath>
#include <deque>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

/// Server workers plus this load-generator thread stay within the cores.
std::size_t worker_cap(std::size_t wanted) {
  const std::size_t cores = std::max(2u, std::thread::hardware_concurrency());
  return std::min(wanted, cores - 1);
}

/// The fleet_emulated shape: 8 tenants x 4 requests in flight on 4 devices,
/// device latency emulated at scale 8, on the tiny CNN.
struct FleetShape {
  std::size_t devices = 4;
  std::size_t workers = worker_cap(4);
  std::size_t tenants = 8;
  std::size_t depth = 4;  ///< Requests in flight per tenant.
  double latency_scale = 8.0;
  ModelKind model = ModelKind::kTinyCnn;
};

struct InFlight {
  std::future<serving::InferenceResult> future;
  Clock::time_point sealed_at;  ///< The client began sealing the input.
  Clock::time_point ready_at;   ///< First sweep that saw the result ready.
  bool ready = false;
  std::size_t input = 0;
};

/// Checked completions whose result became ready inside one segment of the
/// timed window.
struct Segment {
  u64 completed = 0;
  std::vector<double> latency_ms;
};

/// What the closed loop measured. Window 0 and 1 are the two halves of the
/// timed window (they differ only in the traced run, where half 1 is
/// traced). Each half is cut into equal segments.
struct LoopResult {
  u64 executed = 0;  ///< Requests the devices ran (warm-up and drain too).
  u64 completed[2] = {0, 0};  ///< Checked completions inside each half.
  double half_ms[2] = {0, 0};
  double segment_ms = 0;
  std::vector<Segment> segments;  ///< In window order; half 1 is the back half.
  RequestTimers timers;
};

/// Segments are about this long. The host's speed dips for a fraction of a
/// second at a time, now and then for longer; a median over segments leaves
/// such stretches out where a mean over the window would take them in.
constexpr double kSegmentMs = 500.0;

/// While no result is ready the load generator sleeps this long instead of
/// spinning, so it does not take a core from the server's workers. It bounds
/// how late a completion is stamped.
constexpr auto kIdleSleep = std::chrono::microseconds(50);

LoopResult closed_loop(serving::InferenceServer& server,
                       std::vector<Client>& clients, std::size_t depth,
                       double warmup_ms, double window_ms, bool trace,
                       Report& report) {
  LoopResult out;
  std::vector<std::deque<InFlight>> queues(clients.size());
  const std::size_t per_half =
      std::max<std::size_t>(1, std::lround(window_ms / (2 * kSegmentMs)));
  out.segments.resize(2 * per_half);
  out.segment_ms = window_ms / static_cast<double>(out.segments.size());
  const auto start = Clock::now();
  const auto as_duration = [](double ms) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
  };
  const Clock::time_point bounds[3] = {
      start + as_duration(warmup_ms),
      start + as_duration(warmup_ms + window_ms / 2),
      start + as_duration(warmup_ms + window_ms)};
  out.half_ms[0] = ms_between(bounds[0], bounds[1]);
  out.half_ms[1] = ms_between(bounds[1], bounds[2]);

  // Stamps every result that became ready since the last sweep, so a
  // completion is timed when it is ready, not when the loop reaches it.
  auto sweep = [&] {
    const Clock::time_point now = Clock::now();
    for (auto& queue : queues)
      for (InFlight& request : queue) {
        if (request.ready) continue;
        if (request.future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          request.ready = true;
          request.ready_at = now;
        }
      }
  };

  auto submit = [&](std::size_t c) {
    Client& client = clients[c];
    InFlight request;
    request.input = client.next_input++ % client.model->inputs.size();
    request.sealed_at = Clock::now();
    crypto::SealedRecord sealed =
        client.user->seal(client.model->inputs[request.input]);
    const auto t_submit = Clock::now();
    request.future = server.submit_async(client.tenant, std::move(sealed));
    const auto t_done = Clock::now();
    out.timers.seal_us.push_back(1000.0 * ms_between(request.sealed_at, t_submit));
    out.timers.submit_us.push_back(1000.0 * ms_between(t_submit, t_done));
    queues[c].push_back(std::move(request));
    ++report.attempted;
  };

  auto complete = [&](std::size_t c) {
    Client& client = clients[c];
    InFlight& request = queues[c].front();
    serving::InferenceResult result = request.future.get();
    bool ok = result.outcome == serving::RequestOutcome::kOk;
    if (ok) {
      ++out.executed;
      ++client.inferences;
      const auto t_open = Clock::now();
      const std::optional<Bytes> output =
          client.user->open_output(result.sealed_output);
      const double open_ms = ms_since(t_open);
      out.timers.open_us.push_back(1000.0 * open_ms);
      ok = output_matches(output, client.model->references[request.input]);
      const int half = request.ready_at < bounds[0]   ? -1
                       : request.ready_at < bounds[1] ? 0
                       : request.ready_at < bounds[2] ? 1
                                                      : -1;
      if (ok && half >= 0) {
        ++out.completed[half];
        const std::size_t index = std::min(
            out.segments.size() - 1,
            static_cast<std::size_t>(ms_between(bounds[0], request.ready_at) /
                                     out.segment_ms));
        Segment& segment = out.segments[index];
        ++segment.completed;
        segment.latency_ms.push_back(
            ms_between(request.sealed_at, request.ready_at) + open_ms);
      }
    }
    if (!ok)
      report.op_failed("tenant " + std::to_string(client.tenant) + ": " +
                       serving::outcome_name(result.outcome) +
                       (result.outcome == serving::RequestOutcome::kOk
                            ? " but the output differs from the reference"
                            : ""));
    queues[c].pop_front();
  };

  bool traced = false;
  while (true) {
    const Clock::time_point now = Clock::now();
    const bool submitting = now < bounds[2];
    if (trace && !traced && now >= bounds[1]) {
      server.trace().set_enabled(true);
      traced = true;
    }
    sweep();
    bool idle = true;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      while (!queues[c].empty() && queues[c].front().ready) {
        complete(c);
        sweep();
        idle = false;
      }
      while (submitting && queues[c].size() < depth) {
        submit(c);
        idle = false;
      }
    }
    if (!submitting &&
        std::all_of(queues.begin(), queues.end(),
                    [](const auto& q) { return q.empty(); }))
      break;
    if (idle) std::this_thread::sleep_for(kIdleSleep);
  }
  server.trace().set_enabled(false);
  return out;
}

struct Fleet {
  std::unique_ptr<serving::InferenceServer> server;
  std::vector<Client> clients;
};

/// Server construction to the last tenant connected and loaded.
bool build_fleet(const crypto::ManufacturerCa& ca, const FleetShape& shape,
                 const Model& model, u64 seed, int attempt, Fleet& fleet,
                 LifecycleSamples& samples) {
  serving::ServerConfig config;
  config.num_devices = shape.devices;
  config.num_workers = shape.workers;
  config.emulate_device_latency = true;
  config.device_latency_scale = shape.latency_scale;
  fleet.server = std::make_unique<serving::InferenceServer>(
      ca, config, Bytes{0x3f, static_cast<u8>(seed), static_cast<u8>(attempt)});
  const auto t0 = Clock::now();
  const serving::ModelHandle handle = fleet.server->register_model(model.net);
  samples.register_ms.push_back(ms_since(t0));
  if (!handle.valid()) return false;
  fleet.clients.clear();
  fleet.clients.resize(shape.tenants);
  for (std::size_t i = 0; i < shape.tenants; ++i) {
    Client& client = fleet.clients[i];
    client.model = &model;
    client.next_input = i * 7;
    ConnectTiming timing;
    double load_ms = 0;
    if (!connect_client(*fleet.server, ca.public_key(),
                        seed * 104729 + attempt * 64 + i, client, timing) ||
        !load_client(*fleet.server, client, handle, load_ms))
      return false;
    samples.connect_ms.push_back(timing.connect_ms);
    samples.attest_ms.push_back(timing.attest_ms);
    samples.load_gbps.push_back(
        static_cast<double>(model.weight_bytes) / (load_ms * 1e6));
  }
  return true;
}

/// Sums a per-device gauge of the exported telemetry.
double device_gauge_sum(const serving::InferenceServer& server,
                        const std::string& name) {
  const obs::TelemetrySnapshot snapshot = server.telemetry();
  double total = 0;
  for (const obs::MetricSample& sample : snapshot.metrics)
    if (sample.name == name) total += sample.gauge;
  return total;
}

}  // namespace

void run_fleet(const Options& options, Report& report) {
  const FleetShape shape;
  crypto::HmacDrbg ca_drbg(Bytes{0x0f, static_cast<u8>(options.seed)});
  crypto::ManufacturerCa ca(ca_drbg);
  const Model model = make_model(shape.model, options.seed, 64);
  // Relocation rounds per cycle, on the fleet's own model shape (fresh
  // weights each round): the control-plane metrics of this fleet.
  constexpr int kRoundsPerCycle = 6;

  // The run is kCycles cycles spread over the window, so every metric
  // samples the whole run. A cycle builds a fleet (set-up), serves its
  // share of the window, checks the attested last requests, runs the
  // self-check and the relocation rounds, then the security probes.
  std::vector<double> setup_s;
  // Connects and loads of the set-ups and of the relocation rounds.
  LifecycleSamples control;
  u64 completed[2] = {0, 0};
  double half_ms[2] = {0, 0};
  // Per segment of every cycle's window: completions per second and the
  // segment's latency percentiles.
  std::vector<double> segment_rps, segment_p50_ms, segment_p99_ms;
  RequestTimers timers;
  u64 executed = 0;
  double loop_ms = 0;
  double modeled_ms = 0;
  double encrypted = 0;
  double macd = 0;
  u64 puts = 0;
  u64 dedup_hits = 0;
  std::vector<obs::SpanRecord> spans;
  Fleet fleet;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    fleet = Fleet{};
    const auto t_setup = Clock::now();
    if (!build_fleet(ca, shape, model, options.seed, cycle, fleet, control)) {
      report.violation("fleet set-up failed");
      return;
    }
    setup_s.push_back(ms_since(t_setup) / 1000.0);
    serving::InferenceServer& server = *fleet.server;

    const double encrypted_before =
        device_gauge_sum(server, "device_mpu_encrypted_bytes");
    const double macd_before = device_gauge_sum(server, "device_mpu_macd_bytes");
    const double modeled_before = modeled_fleet_ms(server);
    const auto loop_start = Clock::now();
    LoopResult loop = closed_loop(server, fleet.clients, shape.depth,
                                  /*warmup_ms=*/1000.0,
                                  options.seconds * 1000.0 / kCycles,
                                  options.trace, report);
    loop_ms += ms_since(loop_start);
    modeled_ms += modeled_fleet_ms(server) - modeled_before;
    encrypted +=
        device_gauge_sum(server, "device_mpu_encrypted_bytes") - encrypted_before;
    macd += device_gauge_sum(server, "device_mpu_macd_bytes") - macd_before;
    executed += loop.executed;
    for (int half = 0; half < 2; ++half) {
      completed[half] += loop.completed[half];
      half_ms[half] += loop.half_ms[half];
    }
    for (const Segment& segment : loop.segments) {
      segment_rps.push_back(static_cast<double>(segment.completed) * 1000.0 /
                            loop.segment_ms);
      segment_p50_ms.push_back(percentile(segment.latency_ms, 0.50));
      segment_p99_ms.push_back(percentile(segment.latency_ms, 0.99));
    }
    for (auto [to, from] : {std::pair{&timers.seal_us, &loop.timers.seal_us},
                            std::pair{&timers.submit_us, &loop.timers.submit_us},
                            std::pair{&timers.open_us, &loop.timers.open_us}})
      to->insert(to->end(), from->begin(), from->end());
    append_spans(spans, server, cycle);

    // The last request of each tenant asks for a report, verified against
    // the instruction stream the tenant expects for its whole session.
    std::vector<std::future<serving::InferenceResult>> finals;
    std::vector<std::size_t> inputs;
    for (Client& client : fleet.clients) {
      const std::size_t input = client.next_input++ % model.inputs.size();
      inputs.push_back(input);
      finals.push_back(server.submit_async(
          client.tenant, client.user->seal(model.inputs[input]), /*attest=*/true));
      ++report.attempted;
    }
    for (std::size_t c = 0; c < fleet.clients.size(); ++c) {
      Client& client = fleet.clients[c];
      serving::InferenceResult result = finals[c].get();
      const std::optional<Bytes> output =
          result.outcome == serving::RequestOutcome::kOk
              ? client.user->open_output(result.sealed_output)
              : std::nullopt;
      if (result.outcome == serving::RequestOutcome::kOk) ++client.inferences;
      if (!output_matches(output, model.references[inputs[c]]) ||
          !attestation_holds(client, result, model.inputs[inputs[c]], *output))
        report.op_failed("tenant " + std::to_string(client.tenant) +
                         ": attested request failed its checks");
    }

    std::vector<Client*> live;
    for (Client& client : fleet.clients) live.push_back(&client);
    run_self_check(server, live, report);

    const store::StoreStats store_before = server.model_store().stats();
    for (int r = 0; r < kRoundsPerCycle; ++r) {
      const u64 index = static_cast<u64>(cycle * kRoundsPerCycle + r);
      const Model fresh =
          make_model(shape.model, options.seed * 1000003 + index, 2);
      lifecycle_round(server, ca.public_key(), fresh,
                      options.seed * 7919 + 2 * index, control, report);
    }
    const store::StoreStats store_after = server.model_store().stats();
    puts += store_after.puts - store_before.puts;
    dedup_hits += store_after.dedup_hits - store_before.dedup_hits;

    run_probes(server, live, report);
  }

  if (!options.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("req_per_s", median(segment_rps), "req/s");
    report.set("latency_p50_ms", median(segment_p50_ms), "ms");
    report.set("latency_p99_ms", median(segment_p99_ms), "ms");
    report_lifecycle(control, report);
    return;
  }
  report_request_timers(timers, report);
  const double requests = static_cast<double>(std::max<u64>(executed, 1));
  report.set("accel.mpu_encrypted_bytes_per_req", encrypted / requests, "B");
  report.set("accel.mpu_macd_bytes_per_req", macd / requests, "B");
  report.set("accel.modeled_ms_per_req",
             std::round(modeled_ms / requests * 1e9) / 1e9, "ms");
  report.set("serving.device_busy_share",
             modeled_ms * shape.latency_scale /
                 (static_cast<double>(shape.devices) * loop_ms),
             "share");
  const double rps0 = completed[0] / half_ms[0];
  const double rps1 = completed[1] / half_ms[1];
  report.set("obs.trace_overhead_pct", 100.0 * (rps0 - rps1) / rps0, "%");
  const double n_rounds = static_cast<double>(kCycles * kRoundsPerCycle);
  report.set("store.puts_per_round", static_cast<double>(puts) / n_rounds, "count");
  report.set("store.dedup_hits", static_cast<double>(dedup_hits), "count");
  report.set("host.attest_ms", median(control.attest_ms), "ms");
  report.set("host.register_ms", median(control.register_ms), "ms");
  // Histograms the server exports cover the last cycle's fleet.
  report_telemetry(*fleet.server, report);
  report_stages(spans, report);
  measure_accel(ca, model, options.seed, report, /*report_mpu_counts=*/false);
  measure_crypto(options.seed, report);
}

}  // namespace perfbench
