// tenant_lifecycle: the control plane with no request traffic — connect,
// load, seal, replicate, migrate, restore — dominated by P-256 ECDHE/ECDSA
// and by bulk seal/unseal of a multi-MiB model. Its checked requests carry
// the device data path of that model (channel, MPU CTR+CMAC over every
// weight byte, compute) one request at a time. The same round runs after
// the timed window of fleet_emulated, on its model shape.
#include "bench.h"
#include "host/model_codec.h"

namespace perfbench {

namespace {

/// Checked requests after the migration and after the restore. A round's
/// latency percentiles are taken over its 2 x 48 requests, so its p99 is its
/// slowest request, most often the first after a move. The run reports the
/// median over rounds, so a slow stretch of the host moves a few rounds and
/// not the run's figure.
constexpr int kRequestsPerStep = 48;

double gbps(std::size_t bytes, double ms) {
  return ms > 0 ? static_cast<double>(bytes) / (ms * 1e6) : 0.0;
}

}  // namespace

bool lifecycle_round(serving::InferenceServer& server,
                     const crypto::AffinePoint& ca_public, const Model& model,
                     u64 entropy, LifecycleSamples& samples, Report& report) {
  ++report.attempted;
  Client a;
  Client b;
  a.model = b.model = &model;
  store::ContentId content{};
  bool sealed = false;
  // Whatever step fails, both tenants leave and the round's replicas are
  // dropped, so the next round starts from the same fleet state.
  auto finish = [&](const char* failed_step) {
    for (Client* client : {&a, &b})
      if (client->tenant != 0) server.disconnect(client->tenant);
    if (sealed)
      for (std::size_t d = 0; d < server.device_count(); ++d)
        server.model_store().erase(content, server.device_binding(d));
    if (failed_step != nullptr)
      report.op_failed(std::string("lifecycle round: ") + failed_step);
    return failed_step == nullptr;
  };
  const std::size_t bytes = model.weight_bytes;

  // 1. register_model, connect + attest.
  auto t0 = Clock::now();
  const serving::ModelHandle handle = server.register_model(model.net);
  const double register_ms = ms_since(t0);
  if (!handle.valid()) return finish("register_model");
  ConnectTiming timing_a;
  if (!connect_client(server, ca_public, entropy, a, timing_a))
    return finish("connect");

  // 2. load_model, seal_tenant_model.
  double load_ms = 0;
  if (!load_client(server, a, handle, load_ms)) return finish("load_model");
  const Bytes descriptor = host::serialize_descriptor(model.net);
  t0 = Clock::now();
  if (server.seal_tenant_model(a.tenant, descriptor, content) !=
      accel::DeviceStatus::kOk)
    return finish("seal_tenant_model");
  const double seal_ms = ms_since(t0);
  sealed = true;

  // 3. replicate_model to a device that holds no replica.
  std::size_t target = server.device_count();
  for (std::size_t d = 0; d < server.device_count() && target == server.device_count(); ++d)
    if (d != a.device &&
        !server.model_store().contains(content, server.device_binding(d)))
      target = d;
  if (target == server.device_count()) return finish("no replica-free device");
  t0 = Clock::now();
  if (server.replicate_model(content, target) != accel::DeviceStatus::kOk)
    return finish("replicate_model");
  const double replicate_ms = ms_since(t0);

  // 4. migrate_tenant there (client view: until the user re-keyed on the
  //    target), then a few checked requests.
  t0 = Clock::now();
  const auto moved = server.migrate_tenant(a.tenant, target,
                                           a.user->begin_session(), true);
  if (moved.tenant == 0) return finish("migrate_tenant");
  if (!a.user->attest_device(server.get_pk(moved.device_index)) ||
      !a.user->complete_session(moved.response))
    return finish("re-key after migration");
  const double migrate_ms = ms_since(t0);
  a.device = moved.device_index;
  std::vector<double> latencies;
  for (int k = 0; k < kRequestsPerStep; ++k) {
    double latency = 0;
    if (!checked_request(server, a, latency, samples.timers))
      return finish("request after migration");
    latencies.push_back(latency);
  }

  // 5. A second tenant restores the model from the store on a device that
  //    holds a replica, then a few checked requests.
  ConnectTiming timing_b;
  if (!connect_client(server, ca_public, entropy + 1, b, timing_b))
    return finish("second connect");
  if (!server.model_store().contains(content, server.device_binding(b.device)))
    return finish("second tenant landed on a device without the replica");
  t0 = Clock::now();
  if (server.load_model_from_store(b.tenant, content, handle) !=
      accel::DeviceStatus::kOk)
    return finish("load_model_from_store");
  const double restore_ms = ms_since(t0);
  b.handle = handle;
  for (int k = 0; k < kRequestsPerStep; ++k) {
    double latency = 0;
    if (!checked_request(server, b, latency, samples.timers))
      return finish("request after restore");
    latencies.push_back(latency);
  }

  // 6. Both tenants disconnect.
  for (Client* client : {&a, &b}) {
    const accel::DeviceStatus status = server.disconnect(client->tenant);
    client->tenant = 0;
    if (status != accel::DeviceStatus::kOk) return finish("disconnect");
  }
  finish(nullptr);

  samples.register_ms.push_back(register_ms);
  samples.connect_ms.push_back(timing_a.connect_ms);
  samples.connect_ms.push_back(timing_b.connect_ms);
  samples.attest_ms.push_back(timing_a.attest_ms);
  samples.attest_ms.push_back(timing_b.attest_ms);
  samples.load_gbps.push_back(gbps(bytes, load_ms));
  samples.seal_gbps.push_back(gbps(bytes, seal_ms));
  samples.restore_gbps.push_back(gbps(bytes, restore_ms));
  samples.replicate_ms.push_back(replicate_ms);
  samples.migrate_ms.push_back(migrate_ms);
  samples.round_p50_ms.push_back(percentile(latencies, 0.50));
  samples.round_p99_ms.push_back(percentile(latencies, 0.99));
  samples.requests_ok += latencies.size();
  ++samples.rounds;
  return true;
}

void report_lifecycle(const LifecycleSamples& samples, Report& report) {
  report.set("connect_ms", median(samples.connect_ms), "ms");
  report.set("load_gbps", median(samples.load_gbps), "GB/s");
  report.set("seal_gbps", median(samples.seal_gbps), "GB/s");
  report.set("restore_gbps", median(samples.restore_gbps), "GB/s");
  report.set("replicate_ms", median(samples.replicate_ms), "ms");
  report.set("migrate_ms", median(samples.migrate_ms), "ms");
}

void run_lifecycle(const Options& options, Report& report) {
  crypto::HmacDrbg ca_drbg(Bytes{0x1f, static_cast<u8>(options.seed)});
  crypto::ManufacturerCa ca(ca_drbg);
  serving::ServerConfig config;
  config.num_devices = 4;
  config.num_workers = 1;

  // The run is kCycles cycles spread over the window, so every metric
  // samples the whole run: construct a server (set-up: device fabrication
  // and certification), run rounds until their own time adds up to the
  // cycle's share of the window, check a live probe tenant, tear down. Each
  // round's fresh model and references are generated between rounds,
  // outside the timed time. In the traced run the second half of each
  // cycle is traced.
  const double cycle_ms = options.seconds * 1000.0 / kCycles;
  std::vector<double> setup_s;
  LifecycleSamples samples;
  double timed_ms[2] = {0, 0};
  u64 requests[2] = {0, 0};
  u64 puts = 0;
  u64 dedup_hits = 0;
  double modeled_ms = 0;
  std::vector<obs::SpanRecord> spans;
  std::unique_ptr<serving::InferenceServer> server;
  u64 round = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    server.reset();
    const auto t_setup = Clock::now();
    server = std::make_unique<serving::InferenceServer>(
        ca, config,
        Bytes{0x2f, static_cast<u8>(options.seed), static_cast<u8>(cycle)});
    setup_s.push_back(ms_since(t_setup) / 1000.0);

    const store::StoreStats store_before = server->model_store().stats();
    const double modeled_before = modeled_fleet_ms(*server);
    double cycle_timed[2] = {0, 0};
    while (cycle_timed[0] + cycle_timed[1] < cycle_ms) {
      const int half = cycle_timed[0] < cycle_ms / 2 ? 0 : 1;
      server->trace().set_enabled(options.trace && half == 1);
      const Model model = make_model(ModelKind::kBigMlp,
                                     options.seed * 1000003 + round, 2);
      const u64 before = samples.requests_ok;
      const auto t0 = Clock::now();
      const bool ok = lifecycle_round(*server, ca.public_key(), model,
                                      options.seed * 7919 + 2 * round, samples,
                                      report);
      const double round_ms = ms_since(t0);
      cycle_timed[half] += round_ms;
      requests[half] += samples.requests_ok - before;
      if (ok)
        samples.round_rps.push_back(
            static_cast<double>(samples.requests_ok - before) * 1000.0 / round_ms);
      ++round;
    }
    server->trace().set_enabled(false);
    timed_ms[0] += cycle_timed[0];
    timed_ms[1] += cycle_timed[1];
    const store::StoreStats store_after = server->model_store().stats();
    puts += store_after.puts - store_before.puts;
    dedup_hits += store_after.dedup_hits - store_before.dedup_hits;
    modeled_ms += modeled_fleet_ms(*server) - modeled_before;
    append_spans(spans, *server, cycle);

    // Checks that hold on a live tenant: the self-check and the probes.
    const Model probe_model =
        make_model(ModelKind::kBigMlp, options.seed * 1000003 + round, 2);
    Client probe;
    probe.model = &probe_model;
    ConnectTiming ignored;
    double load_ms = 0;
    if (!connect_client(*server, ca.public_key(),
                        options.seed * 7919 + 2 * round, probe, ignored) ||
        !load_client(*server, probe, server->register_model(probe_model.net),
                     load_ms)) {
      report.violation("probe tenant could not connect and load");
    } else {
      run_self_check(*server, {&probe}, report);
      run_probes(*server, {&probe}, report);
      server->disconnect(probe.tenant);
    }
  }
  const double total_ms = timed_ms[0] + timed_ms[1];

  if (!options.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("req_per_s", median(samples.round_rps), "req/s");
    report.set("latency_p50_ms", median(samples.round_p50_ms), "ms");
    report.set("latency_p99_ms", median(samples.round_p99_ms), "ms");
    report_lifecycle(samples, report);
    return;
  }
  const double rounds = static_cast<double>(std::max<u64>(samples.rounds, 1));
  report.set("store.puts_per_round", static_cast<double>(puts) / rounds, "count");
  report.set("store.dedup_hits", static_cast<double>(dedup_hits), "count");
  report.set("host.attest_ms", median(samples.attest_ms), "ms");
  report.set("host.register_ms", median(samples.register_ms), "ms");
  report_request_timers(samples.timers, report);
  report.set("serving.device_busy_share",
             modeled_ms / (static_cast<double>(config.num_devices) * total_ms),
             "share");
  const double rps0 = requests[0] / std::max(timed_ms[0], 1e-9);
  const double rps1 = requests[1] / std::max(timed_ms[1], 1e-9);
  report.set("obs.trace_overhead_pct",
             rps0 > 0 ? 100.0 * (rps0 - rps1) / rps0 : 0.0, "%");
  report_telemetry(*server, report);
  report_stages(spans, report);
  const Model layer_model =
      make_model(ModelKind::kBigMlp, options.seed * 1000003 + round + 1, 4);
  measure_accel(ca, layer_model, options.seed, report, /*report_mpu_counts=*/true);
  measure_crypto(options.seed, report);
}

}  // namespace perfbench
