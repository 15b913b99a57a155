#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "host/model_codec.h"

namespace perfbench {

double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

void Report::violation(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "perfbench: check violated: %s\n", what.c_str());
}

void Report::op_failed(const std::string& what) {
  // The first failures say what broke; a broken build can fail every one.
  if (++failed <= 20)
    std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least p of the sample at or
  // below it.
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- Models -------------------------------------------------------------------

namespace {

Bytes random_int8(Xoshiro256& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<u8>(rng.next_below(256));
  return out;
}

host::FuncLayer fc(int out, int in, int shift, Xoshiro256& rng) {
  return host::FuncLayer{accel::ForwardOp::Kind::kFc, out, 0, 1, 0, shift,
                         random_int8(rng, static_cast<std::size_t>(out) * in)};
}

host::FuncLayer relu() {
  return host::FuncLayer{accel::ForwardOp::Kind::kRelu, 0, 0, 1, 0, 0, {}};
}

}  // namespace

Model make_model(ModelKind kind, u64 seed, std::size_t n_inputs) {
  Xoshiro256 rng(seed);
  Model model;
  host::FuncNetwork& net = model.net;
  switch (kind) {
    case ModelKind::kTinyCnn:
      net.in_c = 3;
      net.in_h = 8;
      net.in_w = 8;
      net.layers.push_back(host::FuncLayer{accel::ForwardOp::Kind::kConv, 4, 3,
                                           1, 1, 4, random_int8(rng, 4 * 3 * 3 * 3)});
      net.layers.push_back(relu());
      net.layers.push_back(host::FuncLayer{accel::ForwardOp::Kind::kMaxPool, 0,
                                           2, 2, 0, 0, {}});
      net.layers.push_back(fc(10, 4 * 4 * 4, 5, rng));
      break;
    case ModelKind::kBigMlp:
      net.in_c = 2048;
      net.layers.push_back(fc(2048, 2048, 11, rng));
      net.layers.push_back(relu());
      net.layers.push_back(fc(10, 2048, 10, rng));
      break;
  }
  for (const auto& layer : net.layers) model.weight_bytes += layer.weights.size();
  const std::size_t input_bytes =
      static_cast<std::size_t>(net.in_c) * net.in_h * net.in_w;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    functional::Tensor input(net.in_c, net.in_h, net.in_w, net.bits);
    const Bytes bytes = random_int8(rng, input_bytes);
    std::copy(bytes.begin(), bytes.end(), input.mutable_bytes().begin());
    model.references.push_back(host::reference_run(net, input));
    model.inputs.push_back(bytes);
  }
  return model;
}

// --- Tenants ------------------------------------------------------------------

bool connect_client(serving::InferenceServer& server,
                    const crypto::AffinePoint& ca_public, u64 entropy,
                    Client& client, ConnectTiming& timing) {
  Bytes seed_bytes(8);
  store_be64(seed_bytes.data(), entropy);
  client.user = std::make_unique<host::RemoteUser>(ca_public, seed_bytes);
  const auto t0 = Clock::now();
  const crypto::AffinePoint share = client.user->begin_session();
  const auto connected = server.connect(share, /*integrity=*/true);
  if (connected.tenant == 0) return false;
  const auto t_attest = Clock::now();
  if (!client.user->attest_device(server.get_pk(connected.device_index)))
    return false;
  timing.attest_ms = ms_since(t_attest);
  if (!client.user->complete_session(connected.response)) return false;
  timing.connect_ms = ms_since(t0);
  client.tenant = connected.tenant;
  client.device = connected.device_index;
  client.inferences = 0;
  return true;
}

bool load_client(serving::InferenceServer& server, Client& client,
                 const serving::ModelHandle& handle, double& load_ms) {
  client.handle = handle;
  const crypto::SealedRecord sealed = client.user->seal(handle.plan->weight_blob);
  const auto t0 = Clock::now();
  const accel::DeviceStatus status =
      server.load_model(client.tenant, handle, sealed);
  load_ms = ms_since(t0);
  return status == accel::DeviceStatus::kOk;
}

bool output_matches(const std::optional<Bytes>& output, const Bytes& reference) {
  return output.has_value() && *output == reference;
}

bool checked_request(serving::InferenceServer& server, Client& client,
                     double& latency_ms, RequestTimers& timers) {
  const std::size_t input = client.next_input++ % client.model->inputs.size();
  const auto t0 = Clock::now();
  crypto::SealedRecord sealed = client.user->seal(client.model->inputs[input]);
  const auto t_submit = Clock::now();
  std::future<serving::InferenceResult> future =
      server.submit_async(client.tenant, std::move(sealed));
  const auto t_wait = Clock::now();
  serving::InferenceResult result = future.get();
  if (result.outcome != serving::RequestOutcome::kOk) return false;
  ++client.inferences;
  const auto t_open = Clock::now();
  const std::optional<Bytes> output = client.user->open_output(result.sealed_output);
  const auto t1 = Clock::now();
  latency_ms = ms_between(t0, t1);
  timers.seal_us.push_back(1000.0 * ms_between(t0, t_submit));
  timers.submit_us.push_back(1000.0 * ms_between(t_submit, t_wait));
  timers.open_us.push_back(1000.0 * ms_between(t_open, t1));
  return output_matches(output, client.model->references[input]);
}

double modeled_fleet_ms(serving::InferenceServer& server) {
  double total = 0;
  for (std::size_t d = 0; d < server.device_count(); ++d)
    total += server.device(d).elapsed_ms();
  return total;
}

void report_request_timers(const RequestTimers& timers, Report& report) {
  report.set("host.seal_us", median(timers.seal_us), "us");
  report.set("host.open_us", median(timers.open_us), "us");
  report.set("serving.submit_us", median(timers.submit_us), "us");
}

bool attestation_holds(Client& client, const serving::InferenceResult& result,
                       const Bytes& last_input, const Bytes& last_output) {
  if (!result.attested) return false;
  host::RemoteUser& user = *client.user;
  const host::ExecutionPlan& plan = *client.handle.plan;
  user.expect_weights(plan.weight_blob);
  user.expect_input(last_input);
  user.expect_output(last_output);
  u8 addr[8];
  store_be64(addr, plan.weight_base);
  user.expect_instruction(accel::Opcode::kSetWeight, BytesView(addr, 8));
  u8 export_operand[16];
  store_be64(export_operand, plan.output_addr);
  store_be64(export_operand + 8, plan.output_bytes);
  std::vector<Bytes> forwards;
  for (const auto& op : plan.ops) forwards.push_back(op.serialize());
  for (u64 r = 0; r < client.inferences; ++r) {
    store_be64(addr, plan.input_addr);
    user.expect_instruction(accel::Opcode::kSetInput, BytesView(addr, 8));
    for (const Bytes& op : forwards)
      user.expect_instruction(accel::Opcode::kForward, op);
    user.expect_instruction(accel::Opcode::kExportOutput,
                            BytesView(export_operand, 16));
  }
  return user.verify_attestation(result.report);
}

// --- Probes -------------------------------------------------------------------

namespace {

/// True when any 24-byte window of `secret` (at its start, middle or end)
/// occurs in `region`.
bool window_found(const Bytes& region, const Bytes& secret) {
  constexpr std::size_t kWindow = 24;
  if (secret.size() < kWindow) return false;
  for (std::size_t at : {std::size_t{0}, (secret.size() - kWindow) / 2,
                         secret.size() - kWindow}) {
    const auto first = secret.begin() + static_cast<std::ptrdiff_t>(at);
    if (std::search(region.begin(), region.end(), first, first + kWindow) !=
        region.end())
      return true;
  }
  return false;
}

}  // namespace

void run_probes(serving::InferenceServer& server, std::vector<Client*> clients,
                Report& report) {
  if (clients.empty()) return;
  // Plaintext scan: every tenant's weight, input and output regions inside
  // its own partition, plus the head of the MAC region.
  for (Client* client : clients) {
    const auto [device, sid] = server.tenant_session(client->tenant);
    const u64 base = accel::GuardNnDevice::partition_base(sid);
    const host::ExecutionPlan& plan = *client->handle.plan;
    accel::UntrustedMemory& memory = server.device_memory(device);
    const std::size_t input_bytes = client->model->inputs.front().size();
    const Bytes regions[] = {
        memory.read(base + plan.weight_base, plan.weight_blob.size() + 512),
        memory.read(base + plan.input_addr, input_bytes + 512),
        memory.read(base + plan.output_addr, plan.output_bytes + 512),
        memory.read(accel::MemoryProtectionUnit::kMacRegionBase, 1 << 16)};
    for (const Bytes& region : regions) {
      // The packed blob pads layers with zeros, so the secrets searched for
      // are each layer's own weights and each input.
      bool leaked = false;
      for (const host::FuncLayer& layer : client->model->net.layers)
        leaked = leaked || window_found(region, layer.weights);
      for (const Bytes& input : client->model->inputs)
        leaked = leaked || window_found(region, input);
      if (leaked)
        report.violation("plaintext weights or inputs found in DRAM of tenant " +
                         std::to_string(client->tenant));
    }
  }

  // Bit-flipped sealed input: refused, and the untouched record then runs.
  {
    Client& client = *clients.front();
    const std::size_t input = client.next_input++ % client.model->inputs.size();
    const crypto::SealedRecord sealed =
        client.user->seal(client.model->inputs[input]);
    crypto::SealedRecord flipped = sealed;
    flipped.ciphertext[flipped.ciphertext.size() / 2] ^= 0x01;
    const serving::InferenceResult refused =
        server.submit(client.tenant, std::move(flipped));
    if (refused.outcome == serving::RequestOutcome::kOk)
      report.violation("a bit-flipped sealed input was accepted");
    const serving::InferenceResult retried = server.submit(client.tenant, sealed);
    if (retried.outcome != serving::RequestOutcome::kOk ||
        !output_matches(client.user->open_output(retried.sealed_output),
                        client.model->references[input]))
      report.violation("the original record did not run after the refusal");
  }

  // Bit flip in the weight region behind the device's back.
  {
    Client& client = *clients.back();
    const auto [device, sid] = server.tenant_session(client.tenant);
    const host::ExecutionPlan& plan = *client.handle.plan;
    server.device_memory(device).tamper(
        accel::GuardNnDevice::partition_base(sid) + plan.weight_base +
            plan.weight_blob.size() / 2,
        0x04);
    const std::size_t input = client.next_input++ % client.model->inputs.size();
    const serving::InferenceResult result = server.submit(
        client.tenant, client.user->seal(client.model->inputs[input]));
    if (result.outcome != serving::RequestOutcome::kDeviceError ||
        result.device_status != accel::DeviceStatus::kIntegrityFailure)
      report.violation(std::string("a tampered weight region answered ") +
                       serving::outcome_name(result.outcome));
  }
}

void run_self_check(serving::InferenceServer& server,
                    std::vector<Client*> clients, Report& report) {
  for (Client* client : clients) {
    const std::size_t input = client->next_input++ % client->model->inputs.size();
    const Bytes& right = client->model->references[input];
    Bytes wrong = right;
    wrong[wrong.size() / 2] ^= 0x01;
    const serving::InferenceResult result = server.submit(
        client->tenant, client->user->seal(client->model->inputs[input]));
    ++client->inferences;
    const std::optional<Bytes> output =
        client->user->open_output(result.sealed_output);
    if (result.outcome != serving::RequestOutcome::kOk ||
        !output_matches(output, right))
      report.violation("a self-check request did not run");
    else if (output_matches(output, wrong))
      report.violation("a request checked against a wrong reference passed");
  }
}

}  // namespace perfbench
