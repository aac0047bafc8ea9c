#include "src/serve/serve_runtime.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/deploy/deployment_engine.h"
#include "src/serve/clock.h"

namespace llama::serve {

ServingFleet build_serving_fleet(
    const deploy::DeploymentConfig& deployment,
    const std::vector<deploy::DeviceSpec>& devices) {
  codebook::CompilerOptions options;
  options.f_min = deployment.frequency;
  options.f_max = deployment.frequency;
  options.n_frequencies = 1;
  return build_serving_fleet(deployment, devices, options);
}

ServingFleet build_serving_fleet(const deploy::DeploymentConfig& deployment,
                                 const std::vector<deploy::DeviceSpec>& devices,
                                 const codebook::CompilerOptions& compile) {
  if (devices.empty())
    throw std::invalid_argument("build_serving_fleet: empty device roster");
  if (!deployment.layout.empty())
    throw std::invalid_argument(
        "build_serving_fleet: deployment.layout must be empty (the codebook "
        "and every device plant follow the ring model)");
  ServingFleet fleet;
  fleet.frequency = deployment.frequency;
  fleet.rx_template = deployment.rx_antenna;
  // The rx orientation is the codebook's query axis, not part of its config
  // hash, so one compile at 0 deg serves every device orientation.
  const codebook::CodebookCompiler compiler(
      core::device_system_config(deployment, common::Angle::degrees(0.0)));
  fleet.book =
      std::make_shared<const codebook::Codebook>(compiler.compile(compile));
  fleet.systems.reserve(devices.size());
  fleet.orientations.reserve(devices.size());
  for (const deploy::DeviceSpec& device : devices) {
    fleet.systems.push_back(std::make_unique<core::LlamaSystem>(
        core::device_system_config(deployment, device.orientation)));
    fleet.orientations.push_back(device.orientation);
  }
  return fleet;
}

ServeRuntime::ServeRuntime(ServeTopology topology, ServingFleet fleet)
    : topology_(topology), book_(std::move(fleet.book)) {
  topology_.validate();
  if (book_ == nullptr)
    throw std::invalid_argument("ServeRuntime: fleet carries no codebook");
  if (fleet.systems.empty())
    throw std::invalid_argument("ServeRuntime: fleet has no devices");
  if (fleet.orientations.size() != fleet.systems.size())
    throw std::invalid_argument(
        "ServeRuntime: fleet orientations must match systems one-to-one");
  n_devices_ = fleet.systems.size();
  shards_.reserve(topology_.n_shards);
  for (std::size_t s = 0; s < topology_.n_shards; ++s)
    shards_.push_back(std::make_unique<WorkerShard>(
        s, topology_.n_shards, topology_.queue_depth, *book_,
        fleet.rx_template));
  for (std::size_t d = 0; d < n_devices_; ++d)
    shards_[topology_.owner_shard(d)]->adopt_device(
        d, std::move(fleet.systems[d]), fleet.orientations[d]);
}

ServeRuntime::~ServeRuntime() {
  // Emergency teardown only: no drain, queued requests are abandoned.
  accepting_.store(false, std::memory_order_release);
  for (const std::unique_ptr<WorkerShard>& shard : shards_)
    shard->queue().close();
  for (std::thread& thread : threads_)
    if (thread.joinable()) thread.join();
}

void ServeRuntime::start() {
  if (started_ || finished_)
    throw std::logic_error(
        "ServeRuntime::start: runtime is one-shot and already started");
  started_ = true;
  WorkerShard::RunContext context;
  context.queues.reserve(shards_.size());
  for (const std::unique_ptr<WorkerShard>& shard : shards_)
    context.queues.push_back(&shard->queue());
  context.in_flight = &in_flight_;
  context.keep_responses = topology_.keep_responses;
  context.pin = topology_.pin_threads;
  threads_.reserve(shards_.size());
  for (const std::unique_ptr<WorkerShard>& shard : shards_) {
    // The lambda borrows the shard and the context by value; both the shard
    // (owned by shards_, never resized after construction) and the queues
    // the context points at outlive the join in stop()/the destructor.
    WorkerShard* worker = shard.get();
    threads_.emplace_back([worker, context] { worker->run(context); });
  }
  start_ns_ = now_ns();
  accepting_.store(true, std::memory_order_release);
}

ServeRuntime::Admit ServeRuntime::submit(Request request) {
  if (!accepting_.load(std::memory_order_acquire))
    throw std::logic_error(
        "ServeRuntime::submit: call between start() and stop()");
  if (request.device >= n_devices_)
    throw std::out_of_range("ServeRuntime::submit: device id beyond fleet");
  if (!std::isfinite(request.frequency.in_hz()))
    throw std::invalid_argument(
        "ServeRuntime::submit: frequency must be finite");
  if (!std::isfinite(request.orientation.rad()))
    throw std::invalid_argument(
        "ServeRuntime::submit: orientation must be finite");
  ++submitted_;
  const std::size_t owner = topology_.owner_shard(request.device);
  MpmcQueue<Request>& queue = shards_[owner]->queue();
  // Admission ladder against the owner queue's (racy) occupancy: shed
  // outright above shed_depth, serve retunes in the cheaper degraded tier
  // above degrade_depth. A physically full ring sheds unconditionally.
  const std::size_t depth = queue.size_approx();
  if (depth >= topology_.admission.shed_depth) {
    record_submit_shed(request);
    return Admit::kShed;
  }
  if (request.kind == RequestKind::kRetune &&
      depth >= topology_.admission.degrade_depth) {
    request.kind = RequestKind::kCodebookLookup;
    request.degraded = true;
    ++submit_degraded_;
  }
  request.submit_ns = now_ns();
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (!queue.try_push(request)) {
    if (topology_.admission.shed_depth == SIZE_MAX) {
      // Admission disabled means EVERY request is served (the determinism
      // gate's contract), so a physically full ring back-pressures the
      // submitter instead of shedding. The owner worker is draining this
      // queue, so progress is guaranteed.
      while (!queue.try_push(request)) std::this_thread::yield();
    } else {
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      record_submit_shed(request);
      return Admit::kShed;
    }
  }
  return request.degraded ? Admit::kDegraded : Admit::kEnqueued;
}

bool ServeRuntime::inject_misrouted(std::size_t shard, Request request) {
  if (!accepting_.load(std::memory_order_acquire))
    throw std::logic_error(
        "ServeRuntime::inject_misrouted: call between start() and stop()");
  if (shard >= shards_.size())
    throw std::out_of_range("ServeRuntime::inject_misrouted: bad shard");
  if (request.device >= n_devices_)
    throw std::out_of_range(
        "ServeRuntime::inject_misrouted: device id beyond fleet");
  request.submit_ns = now_ns();
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (!shards_[shard]->queue().try_push(request)) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  ++submitted_;
  return true;
}

std::size_t ServeRuntime::queue_depth(std::size_t shard) const {
  if (shard >= shards_.size())
    throw std::out_of_range("ServeRuntime::queue_depth: bad shard");
  return shards_[shard]->queue().size_approx();
}

ServeReport ServeRuntime::stop() {
  if (!started_) throw std::logic_error("ServeRuntime::stop: not started");
  accepting_.store(false, std::memory_order_release);
  // Drain: every accepted request decrements in_flight exactly once when
  // its response is recorded (forwarding keeps it in flight), so zero here
  // means every response exists and closing the queues cannot lose work.
  while (in_flight_.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
  const std::uint64_t end_ns = now_ns();
  for (const std::unique_ptr<WorkerShard>& shard : shards_)
    shard->queue().close();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  started_ = false;
  finished_ = true;

  ServeReport report;
  report.submitted = submitted_;
  report.shed = submit_shed_;
  report.payload_fingerprint = submit_fingerprint_;
  report.responses = std::move(submit_responses_);
  for (const std::unique_ptr<WorkerShard>& shard : shards_) {
    const WorkerShard::Counters& counters = shard->counters();
    report.ok += counters.ok;
    report.degraded += counters.degraded;
    report.shed += counters.shed;
    report.forwarded += counters.forwarded;
    report.errors += counters.errors;
    report.latency.merge(shard->latency());
    report.payload_fingerprint += shard->payload_fingerprint();
    if (report.first_error.empty() && !shard->error().empty())
      report.first_error = shard->error();
    if (topology_.keep_responses) {
      const std::vector<Response>& responses = shard->responses();
      report.responses.insert(report.responses.end(), responses.begin(),
                              responses.end());
    }
  }
  report.elapsed_s = static_cast<double>(end_ns - start_ns_) / 1e9;
  if (report.elapsed_s > 0.0)
    report.achieved_rps =
        static_cast<double>(report.ok + report.degraded) / report.elapsed_s;
  return report;
}

void ServeRuntime::record_submit_shed(const Request& request) {
  const Response response = shed_response(request);
  submit_fingerprint_ += response.payload_hash();
  ++submit_shed_;
  if (topology_.keep_responses) submit_responses_.push_back(response);
}

}  // namespace llama::serve
