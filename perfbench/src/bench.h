// Shared pieces of the GuardNN end-to-end benchmark: options, the run
// report, seeded models and inputs with their plaintext references, the
// tenant client, and the checks every timed output goes through.
//
// The benchmark drives only public APIs (serving, host, accel, store,
// crypto, obs) from one process. Everything it feeds the program is
// generated from --seed; the expected outputs come from host::reference_run
// on the same plaintext inputs — no device, channel or MPU involved.
#pragma once

#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/cert.h"
#include "host/scheduler.h"
#include "host/user_client.h"
#include "serving/inference_server.h"

namespace perfbench {

using namespace guardnn;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0);
double ms_between(Clock::time_point t0, Clock::time_point t1);

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One run's result: operation accounting plus named metrics.
struct Report {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// A check that must hold on every run did not (probe passed, self-check
  /// silent, ...): the run is not correct.
  void violation(const std::string& what);
  /// One workload operation failed its check.
  void op_failed(const std::string& what);
};

/// Median / nearest-rank percentile of a sample (0 for an empty one).
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

// --- Models and inputs ------------------------------------------------------

enum class ModelKind {
  kTinyCnn,  ///< 3x8x8 CNN of bench_serving_throughput (~1 KB of weights).
  kBigMlp,   ///< int8 MLP 2048->2048->10 (~4.2 MB), 2 KiB inputs.
};

/// A network plus a pool of plaintext inputs and their reference outputs,
/// all derived from one seed. References are computed here, before any
/// timing starts, so the timed path only compares bytes.
struct Model {
  host::FuncNetwork net;
  std::vector<Bytes> inputs;
  std::vector<Bytes> references;
  std::size_t weight_bytes = 0;  ///< Packed weight blob size.
};

Model make_model(ModelKind kind, u64 seed, std::size_t n_inputs);

// --- Tenants ------------------------------------------------------------------

/// One tenant: the remote user (keys, channel, attestation mirror) plus
/// the server-side handles. Only the user ever sees plaintext.
struct Client {
  std::unique_ptr<host::RemoteUser> user;
  serving::TenantId tenant = 0;
  std::size_t device = 0;
  const Model* model = nullptr;
  serving::ModelHandle handle;
  std::size_t next_input = 0;
  u64 inferences = 0;  ///< Requests executed on the current session.
};

/// Timers the control plane fills in (milliseconds).
struct ConnectTiming {
  double connect_ms = 0;  ///< begin_session -> connect -> attest -> complete.
  double attest_ms = 0;   ///< attest_device alone.
};

/// Runs the full handshake for a new tenant. False on any failure.
bool connect_client(serving::InferenceServer& server,
                    const crypto::AffinePoint& ca_public, u64 entropy,
                    Client& client, ConnectTiming& timing);

/// Seals the model's weights and loads them; `load_ms` times load_model.
bool load_client(serving::InferenceServer& server, Client& client,
                 const serving::ModelHandle& handle, double& load_ms);

/// True when `output` opened and equals the plaintext reference.
bool output_matches(const std::optional<Bytes>& output, const Bytes& reference);

/// Client-side timers around the host and serving calls of each request.
struct RequestTimers {
  std::vector<double> seal_us, submit_us, open_us;
};

/// One synchronous checked request (seal -> submit -> open -> compare).
/// `latency_ms` is the client-side time from seal start to opened output.
bool checked_request(serving::InferenceServer& server, Client& client,
                     double& latency_ms, RequestTimers& timers);

/// Sum of the modeled device time (LatencyAccumulator) over the fleet.
double modeled_fleet_ms(serving::InferenceServer& server);

/// Reports host.seal_us / host.open_us / serving.submit_us medians.
void report_request_timers(const RequestTimers& timers, Report& report);

/// Replays the tenant's session into the user's attestation mirror
/// (SetWeight, then SetInput + Forwards + ExportOutput per inference) and
/// verifies `report` against it, with the last request's data hashes.
bool attestation_holds(Client& client, const serving::InferenceResult& result,
                       const Bytes& last_input, const Bytes& last_output);

// --- Security probes (untimed, not workload operations) ---------------------

/// Runs every probe against live, loaded tenants and records a violation
/// for each one that is not refused:
///   * a bit-flipped sealed input must be refused (the original record is
///     then resubmitted, so the channel stays in sequence);
///   * no window of a tenant's plaintext weights or inputs may appear in its
///     DRAM partition or the MAC region;
///   * a bit flipped in the last tenant's weight region must turn its next
///     request into an integrity failure (that tenant is unusable after).
void run_probes(serving::InferenceServer& server, std::vector<Client*> clients,
                Report& report);

/// Shows the output check can fire: one request per tenant is checked
/// against a deliberately wrong reference and must count as failed.
void run_self_check(serving::InferenceServer& server,
                    std::vector<Client*> clients, Report& report);

// --- Per-layer measurements ---------------------------------------------------

/// Device ISA and sealed-store instructions timed on a standalone device
/// pair with `model`: accel.* metrics.
void measure_accel(const crypto::ManufacturerCa& ca, const Model& model,
                   u64 seed, Report& report, bool report_mpu_counts);

/// Crypto primitives at the sizes the data path uses: crypto.* metrics.
void measure_crypto(u64 seed, Report& report);

/// Appends a server's span ring to `spans`, tagging trace ids with `cycle`
/// so chains of different servers never merge.
void append_spans(std::vector<obs::SpanRecord>& spans,
                  const serving::InferenceServer& server, u64 cycle);

/// Per-stage request times from the span ring: serving.stage.* metrics.
void report_stages(const std::vector<obs::SpanRecord>& spans, Report& report);

/// serving.* metrics the server exports through telemetry().
void report_telemetry(const serving::InferenceServer& server, Report& report);

// --- Lifecycle round (shared by all workloads) --------------------------------

/// Samples from lifecycle rounds; medians become the end-to-end metrics.
struct LifecycleSamples {
  std::vector<double> connect_ms, attest_ms, register_ms;
  std::vector<double> load_gbps, seal_gbps, restore_gbps;
  std::vector<double> replicate_ms, migrate_ms;
  /// Per round: percentiles of its checked requests' latency, and those
  /// requests per second of the round's time (filled by the caller that
  /// times whole rounds).
  std::vector<double> round_p50_ms, round_p99_ms, round_rps;
  RequestTimers timers;
  u64 rounds = 0;
  u64 requests_ok = 0;
};

/// One tenant-lifecycle round on `model` (fresh weights every round):
/// register + connect, load + seal, replicate to a device without a
/// replica, migrate there + checked request, second tenant restores from
/// the store on a replica-holding device + checked request, both
/// disconnect. Returns false (and counts one failed operation) on any
/// failed step.
bool lifecycle_round(serving::InferenceServer& server,
                     const crypto::AffinePoint& ca_public, const Model& model,
                     u64 entropy, LifecycleSamples& samples, Report& report);

/// Reports the lifecycle end-to-end metrics from round samples.
void report_lifecycle(const LifecycleSamples& samples, Report& report);

// --- Workloads ------------------------------------------------------------------

/// Every workload runs in this many cycles spread over its window, each
/// with its own set-up and checks, so that every metric samples the whole
/// run rather than one stretch of it.
inline constexpr int kCycles = 3;

void run_fleet(const Options& options, Report& report);
void run_lifecycle(const Options& options, Report& report);

}  // namespace perfbench
