#include "core/sweep.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "ckpt/codec.hh"
#include "ckpt/result_io.hh"
#include "common/rng.hh"
#include "obs/manifest.hh"

namespace hrsim
{

namespace
{

/** A point's memo identity (see sweep.hh), or "" when it is never
 *  shared because it sets a CheckpointOptions field. */
std::string
memoKey(const SystemConfig &cfg)
{
    const CheckpointOptions &ckpt = cfg.ckpt;
    if (!ckpt.savePath.empty() || ckpt.saveAt != 0 ||
        ckpt.saveEvery != 0 || ckpt.stopAfterSave ||
        !ckpt.restorePath.empty() || ckpt.forkSeed != 0)
        return "";
    return configKey(cfg) +
           (cfg.sim.idleSkip ? " idle_skip=1" : " idle_skip=0") +
           " metrics_every=" + std::to_string(cfg.sim.metricsEvery) +
           " watchdog=" + std::to_string(cfg.sim.watchdogCycles);
}

} // namespace

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts)
{
    jobs_ = opts.jobs != 0 ? opts.jobs
                           : std::thread::hardware_concurrency();
    if (jobs_ == 0)
        jobs_ = 1;
    // jobs == 1 runs inline on the caller; no pool needed. Otherwise
    // the pool is fixed for the runner's lifetime: the caller also
    // drains points, so jobs N means N-1 pool threads plus the
    // caller.
    if (jobs_ > 1) {
        workers_.reserve(jobs_ - 1);
        for (unsigned i = 0; i + 1 < jobs_; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }
}

SweepRunner::~SweepRunner()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

std::uint64_t
SweepRunner::pointSeed(std::uint64_t base, std::size_t index)
{
    // splitmix64 over a base/index mix: well-distributed, and a pure
    // function of (base, index) so scheduling cannot perturb it.
    std::uint64_t state =
        base ^ (static_cast<std::uint64_t>(index) + 1) *
                   0x9e3779b97f4a7c15ULL;
    return splitmix64(state);
}

void
SweepRunner::runPoint(Batch &batch, std::size_t index) const
{
    try {
        SystemConfig cfg = (*batch.points)[index];
        if (opts_.journalDir.empty()) {
            (*batch.results)[index] = runSystem(cfg);
            return;
        }

        const std::string stem = opts_.journalDir + "/point_" +
                                 std::to_string(index);
        if (opts_.resume) {
            RunResult prior;
            if (tryReadResultFile(stem + ".result", configKey(cfg),
                                  prior)) {
                (*batch.results)[index] = std::move(prior);
                return;
            }
            // No finished result; a periodic checkpoint means the
            // point was in flight when the sweep died — restore it
            // rather than repeating the prefix. Probe first so a
            // missing file falls through to a fresh run instead of
            // failing inside System::restoreCheckpoint().
            if (std::ifstream(stem + ".ckpt").good())
                cfg.ckpt.restorePath = stem + ".ckpt";
        }
        if (opts_.checkpointEvery != 0) {
            cfg.ckpt.savePath = stem + ".ckpt";
            cfg.ckpt.saveEvery = opts_.checkpointEvery;
        }
        RunResult result = runSystem(cfg);
        journal(index, cfg, result);
        (*batch.results)[index] = std::move(result);
    } catch (...) {
        (*batch.errors)[index] = std::current_exception();
    }
}

void
SweepRunner::journal(std::size_t index, const SystemConfig &cfg,
                     const RunResult &result) const
{
    const std::string stem =
        opts_.journalDir + "/point_" + std::to_string(index);
    writeResultFile(stem + ".result", configKey(cfg), result);
    // The periodic checkpoint is scratch state for resuming this
    // point; with the result journaled it is dead weight, and
    // removing it leaves a resumed sweep's directory identical to an
    // uninterrupted one's.
    std::remove((stem + ".ckpt").c_str());
}

double
SweepRunner::estimatedCostWeight(const SystemConfig &cfg)
{
    const StopPolicy policy = resolveStopPolicy(cfg.sim);
    const Cycle horizon =
        policy.enabled()
            ? policy.maxCycles
            : cfg.sim.warmupCycles +
                  cfg.sim.batchCycles *
                      static_cast<Cycle>(cfg.sim.numBatches);
    return static_cast<double>(horizon) *
           static_cast<double>(cfg.numProcessors());
}

void
SweepRunner::drain(Batch &batch)
{
    const std::size_t total = batch.order->size();
    std::size_t mine = 0;
    for (;;) {
        const std::size_t claim =
            batch.next.fetch_add(1, std::memory_order_relaxed);
        if (claim >= total)
            break;
        runPoint(batch, (*batch.order)[claim]);
        ++mine;
    }
    if (mine > 0) {
        std::lock_guard<std::mutex> lock(mu_);
        batch.completed += mine;
        if (batch.completed == total)
            done_.notify_all();
    }
}

void
SweepRunner::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        Batch *batch = nullptr;
        {
            std::unique_lock<std::mutex> lock(mu_);
            wake_.wait(lock, [&] {
                return stop_ || (batch_ != nullptr &&
                                 generation_ != seen);
            });
            if (stop_)
                return;
            seen = generation_;
            batch = batch_;
            // Attach under the same lock as the capture: run() must
            // not destroy the batch while any worker still holds a
            // pointer to it, even a late worker that finds no work.
            ++batch->attached;
        }
        drain(*batch);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--batch->attached == 0)
                done_.notify_all();
        }
    }
}

std::vector<RunResult>
SweepRunner::run(const std::vector<SystemConfig> &points)
{
    constexpr std::size_t none = static_cast<std::size_t>(-1);
    std::vector<SystemConfig> cfgs = points;
    std::vector<RunResult> results(points.size());
    std::vector<std::exception_ptr> errors(points.size());

    // Split the batch into points to simulate and repeats: a repeat
    // copies an earlier batch's result (source none) or the result of
    // its first occurrence in this batch.
    std::vector<std::string> keys(points.size());
    std::vector<std::size_t> order;
    std::vector<std::pair<std::size_t, std::size_t>> repeats;
    std::unordered_map<std::string, std::size_t> first;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        if (opts_.reseedPoints)
            cfgs[i].sim.seed = pointSeed(cfgs[i].sim.seed, i);
        keys[i] = memoKey(cfgs[i]);
        if (keys[i].empty()) {
            order.push_back(i);
        } else if (const auto hit = memo_.find(keys[i]);
                   hit != memo_.end()) {
            CkptReader reader(hit->second);
            results[i] = loadRunResult(reader);
            repeats.emplace_back(i, none);
        } else if (const auto [it, fresh] = first.try_emplace(keys[i], i);
                   fresh) {
            order.push_back(i);
        } else {
            repeats.emplace_back(i, it->second);
        }
    }

    simulated_ += order.size();
    Batch batch;
    batch.points = &cfgs;
    batch.results = &results;
    batch.errors = &errors;
    batch.order = &order;

    if (jobs_ == 1 || order.size() <= 1) {
        // Serial: identical to calling runSystem() point by point.
        for (const std::size_t index : order)
            runPoint(batch, index);
    } else {
        // Claim costliest points first so a long point (an adaptive
        // maxCycles budget, a large mesh) starts while plenty of
        // small points remain to fill the other workers; the reaped
        // results land by submission index regardless.
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return estimatedCostWeight(cfgs[a]) >
                                    estimatedCostWeight(cfgs[b]);
                         });
        {
            std::lock_guard<std::mutex> lock(mu_);
            batch_ = &batch;
            ++generation_;
        }
        wake_.notify_all();
        drain(batch); // the caller is a worker too
        {
            // Wait for every point to finish AND every worker to let
            // go of the batch before destroying it: a worker that
            // captured batch_ after the last point was claimed still
            // enters drain() and touches batch.next / batch.points.
            std::unique_lock<std::mutex> lock(mu_);
            done_.wait(lock, [&] {
                return batch.completed == order.size() &&
                       batch.attached == 0;
            });
            batch_ = nullptr;
        }
    }

    for (const std::size_t index : order) {
        if (!keys[index].empty() && !errors[index]) {
            CkptWriter writer;
            saveRunResult(writer, results[index]);
            memo_.emplace(keys[index], writer.data());
        }
    }
    for (const auto &[index, source] : repeats) {
        if (source != none) {
            errors[index] = errors[source];
            if (errors[index])
                continue;
            results[index] = results[source];
        }
        if (opts_.journalDir.empty())
            continue;
        try {
            journal(index, cfgs[index], results[index]);
        } catch (...) {
            errors[index] = std::current_exception();
        }
    }

    for (auto &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

std::vector<RunResult>
runSweep(const std::vector<SystemConfig> &points, unsigned jobs)
{
    SweepOptions opts;
    opts.jobs = jobs;
    SweepRunner runner(opts);
    return runner.run(points);
}

std::vector<SystemConfig>
warmStartReplicas(const SystemConfig &base,
                  const std::string &checkpointPath,
                  const std::vector<std::uint64_t> &seeds)
{
    std::vector<SystemConfig> replicas;
    replicas.reserve(seeds.size());

    if (base.sim.warmupCycles == 0) {
        for (const std::uint64_t seed : seeds) {
            SystemConfig cfg = base;
            cfg.sim.seed = seed;
            replicas.push_back(std::move(cfg));
        }
        return replicas;
    }

    // Reuse an existing donor snapshot only if it was produced by
    // this exact base config; anything else (missing, corrupt, a
    // different config's leftovers) is replaced by a fresh donor run.
    bool have_donor = false;
    try {
        have_donor = peekCheckpointHeader(checkpointPath).configKey ==
                     configKey(base);
    } catch (const CheckpointError &) {
        have_donor = false;
    }
    if (!have_donor) {
        SystemConfig donor = base;
        donor.ckpt.savePath = checkpointPath;
        donor.ckpt.saveAt = donor.sim.warmupCycles;
        donor.ckpt.stopAfterSave = true;
        runSystem(donor);
    }

    for (const std::uint64_t seed : seeds) {
        SystemConfig cfg = base;
        cfg.sim.seed = seed;
        cfg.ckpt.restorePath = checkpointPath;
        cfg.ckpt.forkSeed = seed;
        replicas.push_back(std::move(cfg));
    }
    return replicas;
}

} // namespace hrsim
