#include "svc/service.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "ckpt/checkpoint.hpp"
#include "io/snapshot.hpp"
#include "svc/protocol.hpp"
#include "telemetry/json.hpp"
#include "telemetry/json_reader.hpp"
#include "telemetry/telemetry.hpp"
#include "util/hash.hpp"

namespace greem::svc {

namespace {
constexpr std::uint64_t kNoJob = 0;

// Journal payloads: one JSON document per lifecycle record, tagged with
// the job id so a CRC-corrupt record can be attributed to its owner.
std::string ev_json(std::string_view event, std::uint64_t id) {
  std::ostringstream os;
  telemetry::JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("event", event);
  w.field("id", id);
  w.end_object();
  return os.str();
}

std::string ev_step_json(std::string_view event, std::uint64_t id, std::uint64_t step) {
  std::ostringstream os;
  telemetry::JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("event", event);
  w.field("id", id);
  w.field("step", step);
  w.end_object();
  return os.str();
}

std::string submit_json(std::uint64_t id, const std::string& spec_json) {
  return "{\"event\":\"submit\",\"id\":" + std::to_string(id) +
         ",\"spec\":" + spec_json + "}";
}

std::string terminal_json(std::uint64_t id, JobState state, const std::string& error) {
  std::ostringstream os;
  telemetry::JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("event", "terminal");
  w.field("id", id);
  w.field("state", to_string(state));
  if (!error.empty()) w.field("error", error);
  w.end_object();
  return os.str();
}

std::string rollback_json(std::uint64_t id, int rollbacks) {
  std::ostringstream os;
  telemetry::JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("event", "rollback");
  w.field("id", id);
  w.field("rollbacks", rollbacks);
  w.end_object();
  return os.str();
}

std::string shutdown_json(bool drained) {
  std::ostringstream os;
  telemetry::JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("event", "shutdown");
  w.field("drained", drained);
  w.end_object();
  return os.str();
}
}  // namespace

SimService::SimService(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.root.empty())
    throw std::invalid_argument("svc: output root must not be empty");
  if (cfg_.use_shared_runtime) {
    rt_ = &parx::Runtime::shared(cfg_.nranks);
  } else {
    owned_rt_ = std::make_unique<parx::Runtime>(cfg_.nranks);
    rt_ = owned_rt_.get();
  }
  ep_ = &telemetry::LiveEndpoint::global();
  std::filesystem::create_directories(cfg_.root);
  t0_ = std::chrono::steady_clock::now();
  if (cfg_.journal) {
    std::filesystem::create_directories(cfg_.root + "/journal");
    replay_journal();
  }
}

SimService::~SimService() { stop(); }

double SimService::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

std::string SimService::job_dir(std::uint64_t id) const {
  return cfg_.root + "/" + job_label(id);
}

std::string SimService::job_label(std::uint64_t id) {
  return "job-" + std::to_string(id);
}

std::string SimService::dispatcher_error() const {
  std::lock_guard lock(jobs_mu_);
  return dispatcher_error_;
}

std::string SimService::journal_path() const {
  return cfg_.journal ? cfg_.root + "/journal/journal.log" : std::string();
}

void SimService::start() {
  std::lock_guard lock(jobs_mu_);
  if (started_) return;
  shutdown_ = false;
  drain_ = false;
  drained_ = false;
  shutdown_journaled_ = false;
  dispatcher_done_ = false;
  dispatcher_error_.clear();
  thread_ = std::thread([this] { dispatcher(); });
  started_ = true;
}

std::vector<std::uint64_t> SimService::request_shutdown() {
  std::lock_guard lock(jobs_mu_);
  shutdown_ = true;
  auto requeued = journal_shutdown_locked(/*drained=*/false);
  jobs_cv_.notify_all();
  return requeued;
}

std::vector<std::uint64_t> SimService::request_drain() {
  std::lock_guard lock(jobs_mu_);
  drain_ = true;
  telemetry::Registry::global().counter("svc/drains").add();
  std::vector<std::uint64_t> live;
  for (const auto& [id, j] : jobs_)
    if (!is_terminal(j.state)) live.push_back(id);
  return live;
}

bool SimService::drained() const {
  std::lock_guard lock(jobs_mu_);
  return drained_;
}

void SimService::stop() {
  request_shutdown();
  std::thread t;
  {
    std::lock_guard lock(jobs_mu_);
    t = std::move(thread_);
    started_ = false;
  }
  if (t.joinable()) t.join();
}

bool SimService::running() const {
  std::lock_guard lock(jobs_mu_);
  return started_ && !dispatcher_done_;
}

std::uint64_t SimService::submit(JobSpec spec) {
  if (const std::string why = spec_problem(spec); !why.empty())
    throw std::invalid_argument("svc: invalid spec: " + why);
  // Arm the fault domain up front: a malformed fault spec rejects the
  // submit instead of detonating mid-run, and fire-once budgets live in
  // one injector for the job's whole life.
  auto domain = rt_->make_fault_domain(make_fault_plan(spec));
  std::string spec_json = spec_to_json(spec);
  std::lock_guard lock(jobs_mu_);
  if (shutdown_ || drain_)
    throw std::invalid_argument("svc: service is shutting down");
  // Reject byte-identical duplicates of live jobs: the canonical spec
  // rendering doubles as the identity (resubmitting a FINISHED spec is
  // fine -- reruns are legitimate; two live copies racing on the same
  // outputs are not).
  for (const auto& [oid, oj] : jobs_)
    if (!is_terminal(oj.state) && oj.spec_json == spec_json)
      throw std::invalid_argument("svc: duplicate of live job " + std::to_string(oid));
  const std::uint64_t id = next_id_++;
  journal_locked(id, submit_json(id, spec_json));
  Job j;
  j.id = id;
  j.spec = std::move(spec);
  j.spec_json = std::move(spec_json);
  j.domain = std::move(domain);
  j.submit_s = now_s();
  jobs_.emplace(id, std::move(j));
  maybe_compact_locked();  // the submit record's own compaction, post-emplace
  telemetry::Registry::global().counter("svc/jobs_submitted").add();
  return id;
}

bool SimService::cancel(std::uint64_t id) {
  std::lock_guard lock(jobs_mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || is_terminal(it->second.state)) return false;
  if (it->second.state == JobState::kQueued) {
    finalize_locked(it->second, JobState::kCancelled);
  } else {
    it->second.cancel_requested = true;
  }
  return true;
}

JobStatus SimService::status_locked(const Job& j) const {
  JobStatus s;
  s.id = j.id;
  s.name = j.spec.name;
  s.state = j.state;
  s.priority = j.spec.priority;
  s.steps_done = j.steps_done;
  s.steps_total = j.spec.steps;
  s.rollbacks = j.rollbacks;
  s.error = j.error;
  s.recovered = j.recovered;
  s.submit_s = j.submit_s;
  s.first_step_s = j.first_step_s;
  s.finish_s = j.finish_s;
  return s;
}

std::optional<JobStatus> SimService::status(std::uint64_t id) const {
  std::lock_guard lock(jobs_mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return status_locked(it->second);
}

std::vector<JobStatus> SimService::list() const {
  std::lock_guard lock(jobs_mu_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, j] : jobs_) out.push_back(status_locked(j));
  return out;
}

bool SimService::wait(std::uint64_t id, double timeout_s) {
  std::unique_lock lock(jobs_mu_);
  const auto done = [&] {
    const auto it = jobs_.find(id);
    return it == jobs_.end() || is_terminal(it->second.state) || dispatcher_done_;
  };
  jobs_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), done);
  const auto it = jobs_.find(id);
  return it != jobs_.end() && is_terminal(it->second.state);
}

bool SimService::wait_all_idle(double timeout_s) {
  std::unique_lock lock(jobs_mu_);
  const auto idle = [&] {
    if (dispatcher_done_) return true;
    return std::all_of(jobs_.begin(), jobs_.end(),
                       [](const auto& kv) { return is_terminal(kv.second.state); });
  };
  jobs_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), idle);
  return std::all_of(jobs_.begin(), jobs_.end(),
                     [](const auto& kv) { return is_terminal(kv.second.state); });
}

void SimService::attach_endpoint(telemetry::LiveEndpoint& ep) {
  ep_ = &ep;
  ep.set_command_handler(
      [this, &ep](std::uint64_t client, std::string_view line) {
        return handle_command_line(*this, ep, client, line);
      });
}

void SimService::publish_job_event(const Job& j, std::string_view type,
                                   std::string_view detail) {
  if (!ep_ || !ep_->running()) return;
  std::ostringstream os;
  telemetry::JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("type", type);
  w.field("job", job_label(j.id));
  w.field("state", to_string(j.state));
  w.field("step", j.steps_done);
  if (!detail.empty()) w.field("detail", detail);
  w.end_object();
  ep_->publish_topic(job_label(j.id), os.str());
}

void SimService::finalize_locked(Job& j, JobState state) {
  // Write-ahead: the terminal record is durable before the in-memory
  // transition, so a crash straddling it reports the job terminal on
  // restart instead of silently rerunning it.
  journal_locked(j.id, terminal_json(j.id, state, j.error));
  j.state = state;
  j.finish_s = now_s();
  sched_.remove(j.id);
  const char* counter = state == JobState::kDone     ? "svc/jobs_done"
                        : state == JobState::kFailed ? "svc/jobs_failed"
                                                     : "svc/jobs_cancelled";
  telemetry::Registry::global().counter(counter).add();
  maybe_compact_locked();  // terminal state applied; a snapshot is safe now
  publish_job_event(j, "job");
  jobs_cv_.notify_all();
}

void SimService::journal_locked(std::uint64_t tag, std::string payload) {
  if (!journal_) return;
  if (!journal_->append(tag, payload)) {
    // The journal is a recovery aid; the running service stays
    // authoritative.  Count the failure and keep going.
    telemetry::Registry::global().counter("svc/journal_errors").add();
    return;
  }
  telemetry::Registry::global().counter("svc/journal_appends").add();
  // Compaction is only MARKED due here: journal_locked runs write-ahead,
  // i.e. before the in-memory transition its record announces, so a
  // snapshot taken now would omit that transition (a submit compacted
  // away before jobs_.emplace, a terminal job snapshotted still live).
  // maybe_compact_locked() runs it once the job table is consistent.
  if (cfg_.journal_compact_every > 0 &&
      journal_->appends() >= cfg_.journal_compact_every)
    compact_pending_ = true;
}

void SimService::maybe_compact_locked() {
  if (!journal_ || !compact_pending_) return;
  compact_pending_ = false;
  if (journal_->compact(0, snapshot_payload_locked()))
    telemetry::Registry::global().counter("svc/journal_compactions").add();
}

std::string SimService::snapshot_payload_locked() const {
  // {"event":"snapshot","next_id":N,"jobs":[...]} -- everything replay
  // needs, so compaction can discard the per-transition history.
  std::string out =
      "{\"event\":\"snapshot\",\"next_id\":" + std::to_string(next_id_) + ",\"jobs\":[";
  bool first = true;
  for (const auto& [id, j] : jobs_) {
    if (!first) out += ',';
    first = false;
    std::ostringstream os;
    telemetry::JsonWriter w(os, /*pretty=*/false);
    w.begin_object();
    w.field("id", j.id);
    w.field("state", to_string(j.state));
    w.field("steps_done", j.steps_done);
    w.field("rollbacks", j.rollbacks);
    // Once admitted, the job has a ckpt dir of its own to restore from.
    w.field("resume", j.resume || j.state == JobState::kRunning ||
                          j.state == JobState::kCheckpointing);
    w.field("recovered", j.recovered);
    if (!j.error.empty()) w.field("error", j.error);
    w.end_object();
    std::string entry = os.str();
    const std::string& spec = j.spec_json;
    entry.insert(entry.size() - 1,
                 ",\"spec\":" + (spec.empty() ? spec_to_json(j.spec) : spec));
    out += entry;
  }
  out += "]}";
  return out;
}

std::vector<std::uint64_t> SimService::journal_shutdown_locked(bool drained) {
  std::vector<std::uint64_t> live;
  for (const auto& [id, j] : jobs_)
    if (!is_terminal(j.state)) live.push_back(id);
  if (shutdown_journaled_) return live;
  shutdown_journaled_ = true;
  for (const std::uint64_t id : live) journal_locked(id, ev_json("requeued", id));
  journal_locked(0, shutdown_json(drained));
  return live;
}

void SimService::replay_journal() {
  const std::string path = cfg_.root + "/journal/journal.log";
  const auto rr = ckpt::read_journal(path);
  journal_ = std::make_unique<ckpt::JournalWriter>(path);
  if (!rr) return;  // fresh root: nothing to replay

  // `clean` tracks whether the log ends in a quiesced shutdown: a
  // shutdown record followed at most by terminal/requeued bookkeeping
  // from an in-flight command.  New activity (submit/admit/slice)
  // invalidates it.
  bool clean = false;
  for (const auto& rec : rr->records) {
    const auto v = telemetry::parse_json(rec.payload);
    if (!v || !v->is_object()) continue;
    const std::string ev = v->string_or("event", "");
    if (ev == "shutdown") clean = true;
    else if (ev == "submit" || ev == "admit" || ev == "slice") clean = false;

    if (ev == "snapshot") {
      jobs_.clear();
      next_id_ = std::max<std::uint64_t>(1, v->u64_or("next_id", next_id_));
      const auto* arr = v->find("jobs");
      if (!arr || !arr->is_array()) continue;
      for (const auto& item : arr->items()) {
        if (!item.is_object()) continue;
        const std::uint64_t id = item.u64_or("id", 0);
        const auto* sp = item.find("spec");
        auto spec = sp ? spec_from_json(*sp) : std::nullopt;
        if (id == 0 || !spec) continue;
        Job j;
        j.id = id;
        j.spec = std::move(*spec);
        j.spec_json = spec_to_json(j.spec);
        j.state = state_from_string(item.string_or("state", "queued"))
                      .value_or(JobState::kQueued);
        j.steps_done = item.u64_or("steps_done", 0);
        j.rollbacks = static_cast<int>(item.number_or("rollbacks", 0));
        if (const auto* b = item.find("resume")) j.resume = b->as_bool(false);
        j.error = item.string_or("error", "");
        jobs_[id] = std::move(j);
        next_id_ = std::max(next_id_, id + 1);
      }
    } else if (ev == "submit") {
      const std::uint64_t id = v->u64_or("id", 0);
      const auto* sp = v->find("spec");
      auto spec = sp ? spec_from_json(*sp) : std::nullopt;
      if (id == 0 || !spec) continue;
      Job j;
      j.id = id;
      j.spec = std::move(*spec);
      j.spec_json = spec_to_json(j.spec);
      jobs_[id] = std::move(j);
      next_id_ = std::max(next_id_, id + 1);
    } else {
      const auto it = jobs_.find(v->u64_or("id", 0));
      if (it == jobs_.end()) continue;
      Job& j = it->second;
      if (ev == "admit") {
        j.resume = true;  // it owns a ckpt dir now; restore on readmission
      } else if (ev == "ckpt") {
        j.steps_done = v->u64_or("step", j.steps_done);
      } else if (ev == "rollback") {
        j.rollbacks = static_cast<int>(v->number_or("rollbacks", j.rollbacks + 1));
      } else if (ev == "terminal") {
        if (const auto st = state_from_string(v->string_or("state", "")))
          j.state = *st;
        j.error = v->string_or("error", j.error);
      } else if (ev == "requeued") {
        if (!is_terminal(j.state)) j.state = JobState::kQueued;
      }
    }
  }
  // A framed-but-CRC-corrupt record fails ITS job only; everyone else's
  // history already replayed fine.
  for (const std::uint64_t tag : rr->corrupt_tags) {
    clean = false;
    if (tag == 0) continue;  // global record: crash signature, no owner
    auto it = jobs_.find(tag);
    if (it == jobs_.end()) {
      Job j;
      j.id = tag;
      j.state = JobState::kFailed;
      j.error = "journal record corrupt";
      j.spec_json = spec_to_json(j.spec);
      jobs_[tag] = std::move(j);
      next_id_ = std::max(next_id_, tag + 1);
    } else if (!is_terminal(it->second.state)) {
      it->second.state = JobState::kFailed;
      it->second.error = "journal record corrupt";
    }
  }
  if (rr->truncated) {
    clean = false;
    telemetry::Registry::global().counter("svc/journal_truncated_tails").add();
  }
  recovered_from_crash_ = !clean;

  // Live jobs re-enter the queue (admission keeps priority-then-FIFO
  // order because jobs_ is id-ordered); their fault domains are re-armed
  // fresh -- fire-once budgets do not survive a daemon restart, which is
  // the documented semantic (docs/service.md).
  for (auto& [id, j] : jobs_) {
    j.recovered = true;
    j.submit_s = now_s();
    if (is_terminal(j.state)) continue;
    j.state = JobState::kQueued;
    try {
      j.domain = rt_->make_fault_domain(make_fault_plan(j.spec));
    } catch (const std::exception& e) {
      j.state = JobState::kFailed;
      j.error = e.what();
      continue;
    }
    ++recovered_jobs_;
  }
  telemetry::Registry::global().counter("svc/jobs_recovered").add(
      static_cast<std::uint64_t>(recovered_jobs_));
  // Start this incarnation from one clean snapshot record: replay cost
  // stays bounded and any corrupt/truncated tail is scrubbed.
  if (journal_->ok()) journal_->compact(0, snapshot_payload_locked());
}

void SimService::dispatcher() {
  try {
    rt_->run([this](parx::Comm& world) { rank_loop(world); });
    std::lock_guard lock(jobs_mu_);
    dispatcher_done_ = true;
    jobs_cv_.notify_all();
  } catch (const std::exception& e) {
    std::lock_guard lock(jobs_mu_);
    dispatcher_error_ = e.what();
    dispatcher_done_ = true;
    jobs_cv_.notify_all();
  }
}

void SimService::rank_loop(parx::Comm& world) {
  for (;;) {
    Cmd cmd;
    if (world.rank() == 0) cmd = decide();
    world.bcast_span(std::span<Cmd>(&cmd, 1), 0);
    if (static_cast<Op>(cmd.op) == Op::kShutdown) return;
    try {
      execute(world, cmd);
      // The command frame: no rank reaches the next iteration's bcast
      // until every rank finished this command -- so when a fault fires,
      // every rank catches it in the SAME iteration with the SAME cmd
      // (blocked ranks see the fault flag and throw out of this barrier).
      world.barrier();
    } catch (const parx::CommError& e) {
      // Collective by construction: the injected rank throws
      // FaultInjected, every other rank RemoteFault (or SentinelError on
      // all ranks at once).  Rendezvous, then roll back only this job.
      world.fault_recover(cfg_.recover_timeout_s);
      recover(world, cmd, e.what());
      world.barrier();
    }
  }
}

SimService::Cmd SimService::decide() {
  std::lock_guard lock(jobs_mu_);
  // Every transition of the previous command is fully applied by now, so
  // a compaction left pending mid-transition can snapshot safely.
  maybe_compact_locked();
  if (shutdown_) return {static_cast<std::uint64_t>(Op::kShutdown), kNoJob};

  // 1. Cancellations of resident jobs (queued ones were finalized in
  //    cancel() directly).
  for (auto& [id, j] : jobs_) {
    if (j.cancel_requested && !is_terminal(j.state) && sims_.count(id)) {
      j.cancel_requested = false;
      return {static_cast<std::uint64_t>(Op::kCancel), id};
    }
  }
  // 2. Completions, checkpoints and frames due (flags set by kStep
  //    bookkeeping; cleared here so each fires once).
  for (auto& [id, j] : jobs_) {
    if (j.finish_due) {
      j.finish_due = false;
      return {static_cast<std::uint64_t>(Op::kFinish), id};
    }
  }
  // Drain: no new admissions or steps; checkpoint each resident job,
  // park it back to the queue, then write the clean-shutdown record and
  // wind down.  Cancellations and completions above still win, so a job
  // already at its last step finishes instead of parking.
  if (drain_) {
    for (auto& [id, j] : jobs_) {
      if (is_terminal(j.state) || !sims_.count(id)) continue;
      if (j.drain_stage == 0) {
        j.drain_stage = 1;
        return {static_cast<std::uint64_t>(Op::kCheckpoint), id};
      }
      return {static_cast<std::uint64_t>(Op::kPark), id};
    }
    journal_shutdown_locked(/*drained=*/true);
    drained_ = true;
    shutdown_ = true;
    jobs_cv_.notify_all();
    return {static_cast<std::uint64_t>(Op::kShutdown), kNoJob};
  }
  for (auto& [id, j] : jobs_) {
    if (j.ckpt_due) {
      j.ckpt_due = false;
      return {static_cast<std::uint64_t>(Op::kCheckpoint), id};
    }
  }
  for (auto& [id, j] : jobs_) {
    if (j.frame_due) {
      j.frame_due = false;
      return {static_cast<std::uint64_t>(Op::kSnapshot), id};
    }
  }
  // 3. Admission: highest priority first, FIFO (lowest id) within a
  //    priority, while below the residency cap.
  if (sims_.size() < cfg_.max_active) {
    Job* best = nullptr;
    for (auto& [id, j] : jobs_) {
      if (j.state != JobState::kQueued) continue;
      if (!best || j.spec.priority > best->spec.priority) best = &j;
    }
    if (best) {
      journal_locked(best->id, ev_json("admit", best->id));
      best->state = JobState::kRunning;
      sched_.add(best->id, best->spec.priority);
      return {static_cast<std::uint64_t>(Op::kStart), best->id};
    }
  }
  // 4. Fair-share pick among runnable jobs.
  if (const auto id = sched_.pick()) {
    const Job& j = jobs_.at(*id);
    journal_locked(*id, ev_step_json("slice", *id, j.steps_done + 1));
    return {static_cast<std::uint64_t>(Op::kStep), *id};
  }
  return {static_cast<std::uint64_t>(Op::kIdle), kNoJob};
}

void SimService::execute(parx::Comm& world, const Cmd& cmd) {
  switch (static_cast<Op>(cmd.op)) {
    case Op::kIdle:
      std::this_thread::sleep_for(std::chrono::duration<double>(cfg_.idle_sleep_s));
      return;
    case Op::kStart: return exec_start(world, cmd);
    case Op::kStep: return exec_step(world, cmd);
    case Op::kCheckpoint: return exec_checkpoint(world, cmd);
    case Op::kSnapshot: return exec_snapshot(world, cmd);
    case Op::kFinish: return exec_finish(world, cmd);
    case Op::kCancel: return exec_teardown(world, cmd, JobState::kCancelled);
    case Op::kPark: return exec_park(world, cmd);
    case Op::kShutdown: return;  // handled in rank_loop
  }
}

void SimService::swap_domain(parx::Comm& world,
                             const std::shared_ptr<parx::FaultDomain>& d) {
  // Quiescent-point bracket (parx/runtime.hpp contract): every rank but 0
  // parked at the closing barrier while rank 0 swaps; the barrier's
  // release/acquire publishes the swap.
  world.barrier();
  if (world.rank() == 0) rt_->install_fault_domain(d);
  world.barrier();
}

void SimService::construct_sims(parx::Comm& world, std::uint64_t id) {
  JobSpec spec;
  bool resume = false;
  {
    std::lock_guard lock(jobs_mu_);
    const Job& j = jobs_.at(id);
    spec = j.spec;
    resume = j.resume;
  }
  const auto make = [&] {
    auto cfg = make_sim_config(spec, world.size());
    cfg.job_label = job_label(id);
    cfg.pool_threads = cfg_.pool_threads;
    if (spec.step_report) cfg.step_report_path = job_dir(id) + "/steps.jsonl";
    std::vector<core::Particle> local;
    if (world.rank() == 0) local = make_initial_particles(spec);
    sims_.at(id)[static_cast<std::size_t>(world.rank())] =
        std::make_unique<core::ParallelSimulation>(world, std::move(cfg),
                                                   std::move(local), /*t_start=*/0.0);
  };
  make();
  if (resume) {
    // Restored/parked job readmitted (possibly by a later daemon
    // incarnation): restore from its newest checkpoint.  Restore failures
    // can be rank-local (one corrupt shard), so every rank votes and the
    // job either restores everywhere or is rebuilt everywhere from the
    // deterministic IC -- a well-defined degraded state, never a mix.
    std::uint64_t ok = 1;
    if (const auto latest = ckpt::find_latest(job_dir(id) + "/ckpt")) {
      try {
        sims_.at(id)[static_cast<std::size_t>(world.rank())]->restore_checkpoint(*latest);
      } catch (const std::exception&) {
        ok = 0;
      }
    } else {
      ok = 0;  // no (valid) checkpoint: rebuild from IC
    }
    const auto votes = world.gatherv(std::span<const std::uint64_t>(&ok, 1), 0);
    std::uint64_t all_ok = 0;
    if (world.rank() == 0)
      all_ok = std::all_of(votes.begin(), votes.end(),
                           [](std::uint64_t v) { return v == 1; })
                   ? 1
                   : 0;
    world.bcast_span(std::span<std::uint64_t>(&all_ok, 1), 0);
    if (all_ok == 0) {
      sims_.at(id)[static_cast<std::size_t>(world.rank())].reset();
      world.barrier();
      make();
    }
  }
  parx::set_fault_context(parx::kNoFaultStep, parx::FaultPhase::kAny);
  world.barrier();
}

void SimService::destroy_sims(parx::Comm& world, std::uint64_t id) {
  sims_.at(id)[static_cast<std::size_t>(world.rank())].reset();
  world.barrier();
  if (world.rank() == 0) sims_.erase(id);
}

void SimService::exec_start(parx::Comm& world, const Cmd& cmd) {
  if (world.rank() == 0) {
    std::filesystem::create_directories(job_dir(cmd.job) + "/ckpt");
    sims_[cmd.job].resize(static_cast<std::size_t>(world.size()));
  }
  world.barrier();
  construct_sims(world, cmd.job);
  if (world.rank() == 0) {
    std::lock_guard lock(jobs_mu_);
    Job& j = jobs_.at(cmd.job);
    if (j.resume) {
      j.resume = false;
      // Resync bookkeeping to wherever the restore landed (step 0 when
      // it rebuilt from the IC).
      j.steps_done = sims_.at(cmd.job)[0]->step_index();
      if (j.steps_done >= j.spec.steps) {
        sched_.remove(j.id);
        j.finish_due = true;
      }
      telemetry::Registry::global().counter("svc/jobs_resumed").add();
      publish_job_event(j, "job", "resumed");
    } else {
      publish_job_event(j, "job");
    }
  }
}

void SimService::exec_step(parx::Comm& world, const Cmd& cmd) {
  auto& sim = *sims_.at(cmd.job)[static_cast<std::size_t>(world.rank())];
  std::shared_ptr<parx::FaultDomain> domain;
  JobSpec spec;
  {
    std::lock_guard lock(jobs_mu_);
    const Job& j = jobs_.at(cmd.job);
    domain = j.domain;
    spec = j.spec;
  }
  const bool faulty = domain && !domain->empty();
  if (faulty) swap_domain(world, domain);
  sim.step(static_cast<double>(sim.step_index() + 1) * spec.dt);
  parx::set_fault_context(parx::kNoFaultStep, parx::FaultPhase::kAny);
  if (faulty) swap_domain(world, nullptr);
  if (world.rank() == 0) {
    std::lock_guard lock(jobs_mu_);
    Job& j = jobs_.at(cmd.job);
    j.steps_done = sim.step_index();
    j.attempts = 0;  // consecutive-failure budget resets on a clean step
    if (j.first_step_s < 0) j.first_step_s = now_s();
    sched_.charge(j.id, spec.n_particles);
    telemetry::Registry::global().counter("svc/steps").add();
    if (j.steps_done >= spec.steps) {
      sched_.remove(j.id);
      j.finish_due = true;
    } else if (spec.checkpoint_every > 0 && j.steps_done % spec.checkpoint_every == 0) {
      j.ckpt_due = true;
    }
    if (spec.snapshot_every > 0 && j.steps_done % spec.snapshot_every == 0 &&
        j.steps_done < spec.steps)
      j.frame_due = true;
  }
}

void SimService::exec_checkpoint(parx::Comm& world, const Cmd& cmd) {
  auto& sim = *sims_.at(cmd.job)[static_cast<std::size_t>(world.rank())];
  std::shared_ptr<parx::FaultDomain> domain;
  std::size_t keep_last = 2;
  if (world.rank() == 0) {
    std::lock_guard lock(jobs_mu_);
    jobs_.at(cmd.job).state = JobState::kCheckpointing;
  }
  {
    std::lock_guard lock(jobs_mu_);
    const Job& j = jobs_.at(cmd.job);
    domain = j.domain;
    keep_last = j.spec.keep_last;
  }
  const bool faulty = domain && !domain->empty();
  if (faulty) swap_domain(world, domain);
  sim.checkpoint(job_dir(cmd.job) + "/ckpt", keep_last);
  parx::set_fault_context(parx::kNoFaultStep, parx::FaultPhase::kAny);
  if (faulty) swap_domain(world, nullptr);
  if (world.rank() == 0) {
    std::lock_guard lock(jobs_mu_);
    Job& j = jobs_.at(cmd.job);
    j.state = JobState::kRunning;
    // Post-commit record: restart now restores from this checkpoint.
    journal_locked(j.id, ev_step_json("ckpt", j.id, j.steps_done));
    telemetry::Registry::global().counter("svc/checkpoints").add();
  }
}

void SimService::exec_snapshot(parx::Comm& world, const Cmd& cmd) {
  auto& sim = *sims_.at(cmd.job)[static_cast<std::size_t>(world.rank())];
  const auto sorted = gather_sorted(world, sim);
  if (world.rank() == 0) {
    io::SnapshotHeader h;
    h.n_particles = sorted.size();
    h.clock = sim.clock();
    h.particle_mass = sorted.empty() ? 0.0 : sorted.front().mass;
    const std::string path =
        job_dir(cmd.job) + "/frame_" + std::to_string(sim.step_index()) + ".bin";
    io::write_snapshot(path, h, sorted);
    std::lock_guard lock(jobs_mu_);
    publish_job_event(jobs_.at(cmd.job), "frame", path);
  }
}

void SimService::exec_finish(parx::Comm& world, const Cmd& cmd) {
  auto& sim = *sims_.at(cmd.job)[static_cast<std::size_t>(world.rank())];
  sim.synchronize();
  const auto sorted = gather_sorted(world, sim);
  const double clock = sim.clock();
  bool final_snapshot = true;
  {
    std::lock_guard lock(jobs_mu_);
    final_snapshot = jobs_.at(cmd.job).spec.final_snapshot;
  }
  if (world.rank() == 0 && final_snapshot) {
    io::SnapshotHeader h;
    h.n_particles = sorted.size();
    h.clock = clock;
    h.particle_mass = sorted.empty() ? 0.0 : sorted.front().mass;
    io::write_snapshot(job_dir(cmd.job) + "/final.bin", h, sorted);
  }
  destroy_sims(world, cmd.job);
  if (world.rank() == 0) {
    std::lock_guard lock(jobs_mu_);
    finalize_locked(jobs_.at(cmd.job), JobState::kDone);
  }
}

void SimService::exec_park(parx::Comm& world, const Cmd& cmd) {
  destroy_sims(world, cmd.job);
  if (world.rank() == 0) {
    std::lock_guard lock(jobs_mu_);
    Job& j = jobs_.at(cmd.job);
    journal_locked(j.id, ev_json("requeued", j.id));
    j.state = JobState::kQueued;
    j.resume = true;  // readmission (this run or the next) restores
    j.drain_stage = 0;
    sched_.remove(j.id);
    telemetry::Registry::global().counter("svc/jobs_parked").add();
    publish_job_event(j, "job", "parked");
  }
}

void SimService::exec_teardown(parx::Comm& world, const Cmd& cmd, JobState final_state) {
  destroy_sims(world, cmd.job);
  if (world.rank() == 0) {
    std::lock_guard lock(jobs_mu_);
    finalize_locked(jobs_.at(cmd.job), final_state);
  }
}

void SimService::recover(parx::Comm& world, const Cmd& cmd, const std::string& what) {
  // fault_recover already drained mailboxes and reset the installed
  // transport; clear the domain (the job's injector/transport objects
  // survive inside Job::domain).  The context reset must come FIRST:
  // the swap bracket's own barriers are comm ops, and a sibling spec the
  // original firing left unspent (e.g. one abort per rank in the same
  // step) would fire inside recovery and escape the rank loop's catch.
  parx::set_fault_context(parx::kNoFaultStep, parx::FaultPhase::kAny);
  swap_domain(world, nullptr);

  enum : std::uint64_t { kRestore = 0, kReinit = 1, kFail = 2, kIgnore = 3 };
  std::uint64_t action = kIgnore;
  if (world.rank() == 0) {
    std::lock_guard lock(jobs_mu_);
    const auto it = jobs_.find(cmd.job);
    if (it != jobs_.end() && !is_terminal(it->second.state) && sims_.count(cmd.job)) {
      Job& j = it->second;
      ++j.rollbacks;
      journal_locked(j.id, rollback_json(j.id, j.rollbacks));
      telemetry::Registry::global().counter("svc/rollbacks").add();
      if (++j.attempts > j.spec.max_attempts) {
        j.error = what;
        action = kFail;
      } else {
        action = ckpt::find_latest(job_dir(cmd.job) + "/ckpt") ? kRestore : kReinit;
      }
      publish_job_event(j, "rollback", what);
    }
  }
  world.bcast_span(std::span<std::uint64_t>(&action, 1), 0);

  switch (action) {
    case kRestore: {
      // Every rank resolves the same newest checkpoint (same dir, same
      // filesystem state -- no rank wrote one since the reduce above).
      const auto latest = ckpt::find_latest(job_dir(cmd.job) + "/ckpt");
      if (!latest) throw std::runtime_error("svc: checkpoint vanished during rollback");
      auto& sim = *sims_.at(cmd.job)[static_cast<std::size_t>(world.rank())];
      sim.restore_checkpoint(*latest);
      parx::set_fault_context(parx::kNoFaultStep, parx::FaultPhase::kAny);
      if (world.rank() == 0) {
        std::lock_guard lock(jobs_mu_);
        Job& j = jobs_.at(cmd.job);
        j.steps_done = sim.step_index();
        j.state = JobState::kRunning;
        j.finish_due = j.steps_done >= j.spec.steps;
        if (!j.finish_due && !sched_.contains(j.id)) sched_.add(j.id, j.spec.priority);
      }
      break;
    }
    case kReinit: {
      // No checkpoint yet: rebuild from the deterministic IC (bitwise the
      // same construction the job started from).
      sims_.at(cmd.job)[static_cast<std::size_t>(world.rank())].reset();
      world.barrier();
      construct_sims(world, cmd.job);
      if (world.rank() == 0) {
        std::lock_guard lock(jobs_mu_);
        Job& j = jobs_.at(cmd.job);
        j.steps_done = 0;
        j.state = JobState::kRunning;
        j.finish_due = false;
        if (!sched_.contains(j.id)) sched_.add(j.id, j.spec.priority);
      }
      break;
    }
    case kFail: {
      destroy_sims(world, cmd.job);
      if (world.rank() == 0) {
        std::lock_guard lock(jobs_mu_);
        finalize_locked(jobs_.at(cmd.job), JobState::kFailed);
      }
      break;
    }
    case kIgnore:
    default:
      break;
  }
}

std::vector<core::Particle> gather_sorted(parx::Comm& world,
                                          const core::ParallelSimulation& sim) {
  const auto mine = sim.local();
  const auto all = world.gatherv(std::span<const core::Particle>(mine), 0);
  return core::sorted_by_id(all);
}

std::uint64_t state_hash(std::span<const core::Particle> particles, double clock) {
  util::Fnv1a64 h;
  h.mix(clock);
  if (!particles.empty()) h.bytes(particles.data(), particles.size_bytes());
  return h.value();
}

}  // namespace greem::svc
