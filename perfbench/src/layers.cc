// Per-layer measurements for the traced run: the device ISA on a standalone
// device pair, crypto primitives at the data path's sizes, the server's
// exported telemetry, and per-stage request times from the span ring.
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "bench.h"
#include "crypto/aes128.h"
#include "crypto/ecdh.h"
#include "crypto/ecdsa.h"
#include "crypto/mem_mac.h"
#include "crypto/sha256.h"
#include "host/model_codec.h"
#include "obs/export.h"

namespace perfbench {

namespace {

double us_since(Clock::time_point t0) { return 1000.0 * ms_since(t0); }

/// Runs `body` (which processes `bytes` bytes) in repetitions of at least
/// `min_ms`, five times, and returns the median rate in GB/s.
template <typename Body>
double median_gbps(std::size_t bytes, double min_ms, Body body) {
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t done = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    while (elapsed < min_ms) {
      body();
      done += bytes;
      elapsed = ms_since(t0);
    }
    rates.push_back(static_cast<double>(done) / (elapsed * 1e6));
  }
  return median(rates);
}

template <typename Body>
double median_ms(int reps, Body body) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    body();
    times.push_back(ms_since(t0));
  }
  return median(times);
}

}  // namespace

void measure_accel(const crypto::ManufacturerCa& ca, const Model& model,
                   u64 seed, Report& report, bool report_mpu_counts) {
  accel::UntrustedMemory memory_a;
  accel::UntrustedMemory memory_b;
  accel::GuardNnDevice device_a("perfbench-a", ca, memory_a,
                                Bytes{0x4a, static_cast<u8>(seed)});
  accel::GuardNnDevice device_b("perfbench-b", ca, memory_b,
                                Bytes{0x4b, static_cast<u8>(seed)});
  const host::ExecutionPlan plan = host::HostScheduler::compile(model.net);
  const Bytes descriptor = host::serialize_descriptor(model.net);
  Bytes entropy(8);
  store_be64(entropy.data(), seed * 31 + 7);
  host::RemoteUser user(ca.public_key(), entropy);
  if (!user.attest_device(device_a.get_pk())) {
    report.violation("standalone device failed attestation");
    return;
  }

  // Control-plane instructions, each iteration on a fresh session.
  std::vector<double> init_ms, set_weight_ms, seal_ms, unseal_ms, provision_ms;
  accel::SessionId sid = accel::kInvalidSession;
  for (int it = 0; it < 3; ++it) {
    if (sid != accel::kInvalidSession) device_a.close_session(sid);
    const crypto::AffinePoint share = user.begin_session();
    auto t0 = Clock::now();
    const accel::InitSessionResponse response = device_a.init_session(share, true);
    init_ms.push_back(ms_since(t0));
    if (response.status != accel::DeviceStatus::kOk ||
        !user.complete_session(response)) {
      report.violation("standalone InitSession failed");
      return;
    }
    sid = response.session_id;
    const crypto::SealedRecord weights = user.seal(plan.weight_blob);
    t0 = Clock::now();
    const accel::DeviceStatus loaded =
        device_a.set_weight(sid, weights, plan.weight_base);
    set_weight_ms.push_back(ms_since(t0));
    store::SealedBlob blob;
    t0 = Clock::now();
    const accel::DeviceStatus sealed = device_a.seal_model(
        sid, plan.weight_base, plan.weight_blob.size(), descriptor, blob);
    seal_ms.push_back(ms_since(t0));
    Bytes descriptor_out;
    t0 = Clock::now();
    const accel::DeviceStatus unsealed =
        device_a.unseal_model(sid, blob, plan.weight_base, descriptor_out);
    unseal_ms.push_back(ms_since(t0));
    accel::ProvisionRequest request;
    accel::ProvisionGrant grant;
    store::SealedBlob wrapped;
    store::SealedBlob rebound;
    t0 = Clock::now();
    const bool provisioned =
        device_b.provision_begin(request) == accel::DeviceStatus::kOk &&
        device_a.export_for_device(blob, request, wrapped, grant) ==
            accel::DeviceStatus::kOk &&
        device_b.provision_finish(wrapped, grant, rebound) ==
            accel::DeviceStatus::kOk;
    provision_ms.push_back(ms_since(t0));
    if (loaded != accel::DeviceStatus::kOk || sealed != accel::DeviceStatus::kOk ||
        unsealed != accel::DeviceStatus::kOk || !provisioned) {
      report.violation("standalone store instructions failed");
      return;
    }
  }
  report.set("accel.init_session_ms", median(init_ms), "ms");
  report.set("accel.set_weight_ms", median(set_weight_ms), "ms");
  report.set("accel.seal_model_ms", median(seal_ms), "ms");
  report.set("accel.unseal_model_ms", median(unseal_ms), "ms");
  report.set("accel.provision_ms", median(provision_ms), "ms");

  // The request ISA on the last session, checked against the reference.
  host::HostScheduler scheduler(device_a, sid);
  std::vector<double> set_input_us, execute_us, export_us;
  const u64 encrypted_before = device_a.mpu_byte_counters().bytes_encrypted.load();
  const u64 macd_before = device_a.mpu_byte_counters().bytes_macd.load();
  const double modeled_before = device_a.elapsed_ms();
  const auto start = Clock::now();
  std::size_t requests = 0;
  while (requests < 10 || (ms_since(start) < 500.0 && requests < 2000)) {
    const std::size_t input = requests % model.inputs.size();
    const crypto::SealedRecord sealed = user.seal(model.inputs[input]);
    auto t0 = Clock::now();
    accel::DeviceStatus status = device_a.set_input(sid, sealed, plan.input_addr);
    set_input_us.push_back(us_since(t0));
    scheduler.note_input();
    t0 = Clock::now();
    if (status == accel::DeviceStatus::kOk) status = scheduler.execute(plan);
    execute_us.push_back(us_since(t0));
    crypto::SealedRecord output;
    t0 = Clock::now();
    if (status == accel::DeviceStatus::kOk)
      status = device_a.export_output(sid, plan.output_addr, plan.output_bytes,
                                      output);
    export_us.push_back(us_since(t0));
    if (status != accel::DeviceStatus::kOk ||
        !output_matches(user.open_output(output), model.references[input])) {
      report.violation("standalone request did not match the reference");
      return;
    }
    ++requests;
  }
  report.set("accel.set_input_us", median(set_input_us), "us");
  report.set("accel.execute_us", median(execute_us), "us");
  report.set("accel.export_output_us", median(export_us), "us");
  if (!report_mpu_counts) return;
  const double n = static_cast<double>(requests);
  report.set("accel.mpu_encrypted_bytes_per_req",
             static_cast<double>(device_a.mpu_byte_counters().bytes_encrypted.load() -
                                 encrypted_before) / n,
             "B");
  report.set("accel.mpu_macd_bytes_per_req",
             static_cast<double>(device_a.mpu_byte_counters().bytes_macd.load() -
                                 macd_before) / n,
             "B");
  report.set("accel.modeled_ms_per_req",
             std::round((device_a.elapsed_ms() - modeled_before) / n * 1e9) / 1e9,
             "ms");
}

void measure_crypto(u64 seed, Report& report) {
  Xoshiro256 rng(seed ^ 0xc0ffee);
  crypto::AesKey key{};
  rng.fill(key);
  const crypto::Aes128 aes(key);
  const crypto::CmacSubkeys subkeys = crypto::cmac_derive_subkeys(aes);
  constexpr std::size_t kChunk = 512;  // MPU protection chunk
  constexpr std::size_t kLanes = kChunk * crypto::kCmacLanes;
  Bytes buffer(1 << 20);
  rng.fill(buffer);
  u64 vn = 1;
  u64 sink = 0;

  for (const std::size_t size : {kChunk, kLanes}) {
    const std::string tag = size == kChunk ? "512B" : "16KiB";
    report.set("crypto.ctr_" + tag + "_gbps",
               median_gbps(size, 20.0, [&] {
                 crypto::memory_xcrypt(aes, 0x1000, ++vn,
                                       MutBytesView(buffer.data(), size));
               }),
               "GB/s");
    std::vector<u64> tags(size / kChunk);
    report.set("crypto.cmac_" + tag + "_gbps",
               median_gbps(size, 20.0, [&] {
                 crypto::memory_mac_many(aes, subkeys, 0x1000, ++vn, kChunk,
                                         BytesView(buffer.data(), size),
                                         tags.data(), tags.size());
                 sink += tags[0];
               }),
               "GB/s");
  }
  report.set("crypto.sha256_gbps",
             median_gbps(buffer.size(), 20.0, [&] {
               sink += crypto::Sha256::hash(buffer)[0];
             }),
             "GB/s");

  crypto::HmacDrbg drbg(Bytes{0x5c, static_cast<u8>(seed)});
  const crypto::EcdhKeyPair ours = crypto::ecdh_generate_key(drbg);
  const crypto::EcdhKeyPair theirs = crypto::ecdh_generate_key(drbg);
  report.set("crypto.ecdh_ms", median_ms(5, [&] {
               sink += crypto::ecdh_shared_secret(ours.private_key,
                                                  theirs.public_key).limb[0];
             }),
             "ms");
  const crypto::EcdsaKeyPair signer = crypto::ecdsa_generate_key(drbg);
  const Bytes message(64, 0x42);
  crypto::EcdsaSignature signature;
  report.set("crypto.ecdsa_sign_ms", median_ms(5, [&] {
               signature = crypto::ecdsa_sign(signer.private_key, message);
             }),
             "ms");
  bool verified = true;
  report.set("crypto.ecdsa_verify_ms", median_ms(5, [&] {
               verified = verified &&
                          crypto::ecdsa_verify(signer.public_key, message, signature);
             }),
             "ms");
  if (!verified) report.violation("ECDSA signature did not verify");
  // Keeps the results observable so no measured call is optimized away.
  if (sink == 0x5eed) std::fprintf(stderr, " ");
}

void report_telemetry(const serving::InferenceServer& server, Report& report) {
  const obs::TelemetrySnapshot snapshot = server.telemetry();
  auto hist = [&](const char* name) {
    const obs::MetricSample* sample = obs::find_metric(snapshot, name);
    return sample ? sample->hist : obs::HistogramSnapshot{};
  };
  const obs::HistogramSnapshot queue = hist("serving_queue_ms");
  const obs::HistogramSnapshot service = hist("serving_service_ms");
  report.set("serving.queue_ms_p50", queue.p50, "ms");
  report.set("serving.queue_ms_p99", queue.p99, "ms");
  report.set("serving.service_ms_p50", service.p50, "ms");
  report.set("serving.service_ms_p99", service.p99, "ms");
  report.set("serving.batch_size_mean", hist("serving_batch_size").mean(), "req");
  report.set("serving.migrate_blackout_ms",
             hist("serving_migration_blackout_ms").p50, "ms");
  const obs::MetricSample* retries =
      obs::find_metric(snapshot, "serving_retries_total");
  report.set("serving.retries",
             retries ? static_cast<double>(retries->counter) : 0.0, "count");
}

void append_spans(std::vector<obs::SpanRecord>& spans,
                  const serving::InferenceServer& server, u64 cycle) {
  for (obs::SpanRecord span : server.trace().snapshot()) {
    if (span.trace_id == 0) continue;
    span.trace_id |= cycle << 56;
    spans.push_back(span);
  }
}

void report_stages(const std::vector<obs::SpanRecord>& spans, Report& report) {
  using obs::SpanKind;
  constexpr int kKinds = 7;  // kSubmit .. kResolve
  struct Chain {
    u64 t[kKinds] = {};
    unsigned seen = 0;
  };
  std::unordered_map<u64, Chain> chains;
  for (const obs::SpanRecord& span : spans) {
    const int kind = static_cast<int>(span.kind);
    if (kind >= kKinds || span.trace_id == 0) continue;
    Chain& chain = chains[span.trace_id];
    chain.t[kind] = span.t_ns;
    chain.seen |= 1u << kind;
  }
  // Consecutive spans of complete request chains: submit -> admit ->
  // pickup -> unseal -> device -> seal -> resolve.
  struct Stage {
    const char* name;
    SpanKind from;
    SpanKind to;
    double scale;  ///< ns -> the stage's unit
    const char* unit;
  };
  const Stage stages[] = {
      {"admit_us", SpanKind::kSubmit, SpanKind::kAdmit, 1e-3, "us"},
      {"shard_wait_ms", SpanKind::kAdmit, SpanKind::kPickup, 1e-6, "ms"},
      {"pickup_to_unseal_ms", SpanKind::kPickup, SpanKind::kUnseal, 1e-6, "ms"},
      {"execute_ms", SpanKind::kUnseal, SpanKind::kDevice, 1e-6, "ms"},
      {"export_ms", SpanKind::kDevice, SpanKind::kSeal, 1e-6, "ms"},
      {"resolve_ms", SpanKind::kSeal, SpanKind::kResolve, 1e-6, "ms"},
  };
  for (const Stage& stage : stages) {
    std::vector<double> values;
    for (const auto& [id, chain] : chains) {
      if (chain.seen != (1u << kKinds) - 1) continue;
      const u64 from = chain.t[static_cast<int>(stage.from)];
      const u64 to = chain.t[static_cast<int>(stage.to)];
      values.push_back(static_cast<double>(to - from) * stage.scale);
    }
    const std::string name = std::string("serving.stage.") + stage.name;
    report.set(name + "_p50", percentile(values, 0.50), stage.unit);
    report.set(name + "_p99", percentile(values, 0.99), stage.unit);
  }
}

}  // namespace perfbench
