#include "engine/batch_engine.hpp"

#include "analyze/analyze.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

#include <algorithm>
#include <chrono>

namespace mwl {

std::size_t batch_engine::job_key_hash::operator()(const job_key& key) const
{
    fnv1a_hasher h;
    h.mix(static_cast<std::int64_t>(key.graph_fp));
    h.mix(static_cast<std::int64_t>(key.model_fp));
    h.mix(static_cast<std::int64_t>(key.lambda));
    h.mix(static_cast<std::int64_t>(key.options.enable_growth));
    h.mix(static_cast<std::int64_t>(key.options.reassign_cheapest));
    h.mix(static_cast<std::int64_t>(key.options.classic_constraint));
    h.mix(static_cast<std::int64_t>(key.options.initial_capacity));
    h.mix(static_cast<std::int64_t>(key.options.max_iterations));
    return h.digest();
}

batch_engine::batch_engine(const batch_options& options)
    : owned_pool_(std::make_unique<thread_pool>(options.jobs)),
      pool_(owned_pool_.get()), debug_static_check_(options.debug_static_check),
      cache_(options.cache_capacity, options.cache_shards)
{
}

batch_engine::batch_engine(thread_pool& pool, const batch_options& options)
    : pool_(&pool), debug_static_check_(options.debug_static_check),
      cache_(options.cache_capacity, options.cache_shards)
{
}

void batch_engine::allocate(const sequencing_graph& graph,
                            const hardware_model& model, int lambda,
                            const dpalloc_options& options,
                            std::shared_ptr<const dpalloc_result>& result,
                            std::string& error) const
{
    try {
        result = std::make_shared<const dpalloc_result>(
            dpalloc(graph, model, lambda, options));
        if (debug_static_check_) {
            const analysis_report report =
                analyze_allocation(graph, model, result->path);
            if (!report.ok()) {
                error = "static check failed (" +
                        std::to_string(report.findings.size()) +
                        " findings):" + format_findings(report.findings);
                result.reset();
            }
        }
    } catch (const std::exception& e) {
        result.reset();
        error = e.what();
        if (error.empty()) {
            error = "allocation failed";
        }
    }
}

batch_engine::~batch_engine()
{
    static_cast<void>(drain());
}

std::size_t batch_engine::submit(const sequencing_graph& graph,
                                 const hardware_model& model, int lambda,
                                 const dpalloc_options& options)
{
    const job_key key{graph_fingerprint(graph), model.fingerprint(), lambda,
                      options};
    submitted_.fetch_add(1, std::memory_order_relaxed);

    // Cache lookup first, touching only the key's shard lock. A result
    // published between this miss and the in-flight registration below is
    // recomputed -- a benign race costing one duplicate execution, never a
    // wrong answer (equal keys imply byte-identical results).
    if (auto cached = cache_.get(key)) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        std::unique_lock<std::mutex> lock(mutex_);
        const std::size_t index = entries_.size();
        outcome& entry = entries_.emplace_back();
        entry.key = job_key_hash{}(key);
        entry.result = std::move(*cached);
        entry.from_cache = true;
        if (hook_) {
            // Hook with the lock released; the caller is inside submit(),
            // so the engine cannot be destroyed underneath the call.
            const completion_hook hook = hook_;
            const outcome out = entry;
            lock.unlock();
            hook(index, out);
        }
        return index;
    }

    std::unique_lock<std::mutex> lock(mutex_);
    const std::size_t index = entries_.size();
    outcome& entry = entries_.emplace_back();
    entry.key = job_key_hash{}(key);
    const auto [it, fresh] = inflight_.try_emplace(key);
    it->second.indices.push_back(index);
    if (!fresh) {
        entry.coalesced = true;
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        return index;
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    // The future is intentionally dropped: execute() reports through
    // resolve() and never throws out of the task.
    static_cast<void>(pool_->submit(
        [this, key, &graph, &model] { execute(key, graph, model); }));
    return index;
}

batch_engine::outcome batch_engine::run(const sequencing_graph& graph,
                                        const hardware_model& model,
                                        int lambda,
                                        const dpalloc_options& options)
{
    const job_key key{graph_fingerprint(graph), model.fingerprint(), lambda,
                      options};
    const std::uint64_t key_hash = job_key_hash{}(key);
    submitted_.fetch_add(1, std::memory_order_relaxed);

    if (auto cached = cache_.get(key)) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        outcome out;
        out.result = std::move(*cached);
        out.key = key_hash;
        out.from_cache = true;
        return out;
    }

    {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto [it, fresh] = inflight_.try_emplace(key);
        if (!fresh) {
            // Identical job already executing (batch- or run-originated):
            // rendezvous on its sync slot instead of recomputing.
            if (!it->second.sync) {
                it->second.sync = std::make_shared<sync_slot>();
            }
            const std::shared_ptr<sync_slot> slot = it->second.sync;
            lock.unlock();
            coalesced_.fetch_add(1, std::memory_order_relaxed);
            return wait_coalesced(slot, key_hash);
        }
        in_flight_.fetch_add(1, std::memory_order_relaxed);
    }

    // Execute on the calling thread: the serve daemon's concurrency is its
    // request tasks, so the work happens where the request is.
    std::shared_ptr<const dpalloc_result> result;
    std::string error;
    allocate(graph, model, lambda, options, result, error);
    resolve(key, result, error);
    outcome out;
    out.result = std::move(result);
    out.error = std::move(error);
    out.key = key_hash;
    return out;
}

batch_engine::outcome batch_engine::wait_coalesced(
    const std::shared_ptr<sync_slot>& slot, std::uint64_t key_hash)
{
    using namespace std::chrono_literals;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(slot->mutex);
            if (slot->done) {
                break;
            }
        }
        // Help the pool while waiting: the job we coalesced onto may still
        // be *queued* (batch-originated), and every pool worker may itself
        // be a run() caller -- draining the queues ourselves guarantees
        // progress on any pool size.
        if (!pool_->run_one()) {
            std::unique_lock<std::mutex> lock(slot->mutex);
            if (!slot->done) {
                slot->cv.wait_for(lock, 200us);
            }
        }
    }
    outcome out;
    out.result = slot->result;
    out.error = slot->error;
    out.key = key_hash;
    out.coalesced = true;
    return out;
}

void batch_engine::execute(const job_key& key, const sequencing_graph& graph,
                           const hardware_model& model)
{
    std::shared_ptr<const dpalloc_result> result;
    std::string error;
    allocate(graph, model, key.lambda, key.options, result, error);
    resolve(key, std::move(result), std::move(error));
}

void batch_engine::resolve(const job_key& key,
                           std::shared_ptr<const dpalloc_result> result,
                           std::string error)
{
    // The completion hook runs with the lock released but *before* the
    // resolution is published: while the key is still in inflight_, no
    // drain() can return, so the engine stays alive across the unlocked
    // calls. A submit that coalesces onto the key during a hook call is
    // picked up by the next pass of the loop, so every waiter is hooked
    // exactly once.
    std::vector<std::size_t> hooked;
    std::shared_ptr<sync_slot> sync;
    for (;;) {
        completion_hook hook;
        std::vector<std::pair<std::size_t, outcome>> fresh;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            const auto it = inflight_.find(key);
            MWL_ASSERT(it != inflight_.end());
            hook = hook_;
            if (hook) {
                for (const std::size_t index : it->second.indices) {
                    if (std::find(hooked.begin(), hooked.end(), index) !=
                        hooked.end()) {
                        continue;
                    }
                    outcome out = entries_[index]; // key + coalesced flag
                    out.result = result;
                    out.error = error;
                    fresh.emplace_back(index, std::move(out));
                }
            }
            if (fresh.empty()) {
                executed_.fetch_add(1, std::memory_order_relaxed);
                if (!result) {
                    errors_.fetch_add(1, std::memory_order_relaxed);
                }
                for (const std::size_t index : it->second.indices) {
                    entries_[index].result = result;
                    entries_[index].error = error;
                }
                sync = std::move(it->second.sync);
                if (result) {
                    // Insert before erasing the in-flight entry, so a
                    // concurrent submit/run always sees the key in at
                    // least one place. Errors are not cached: they are
                    // cheap to rediscover and a bounded cache slot is
                    // better spent on a datapath.
                    cache_.put(key, result);
                }
                inflight_.erase(it);
                in_flight_.fetch_sub(1, std::memory_order_relaxed);
                // Notify while still holding the mutex: the moment it is
                // released, a drain() that sees the batch complete may
                // return and let the engine be destroyed, so an unlocked
                // notify could touch a dead cv.
                idle_cv_.notify_all();
                break;
            }
        }
        for (const auto& [index, out] : fresh) {
            hook(index, out);
            hooked.push_back(index);
        }
    }
    if (sync) {
        // The slot is jointly owned with its run() waiters, so waking them
        // after the engine bookkeeping is released is lifetime-safe even
        // if a drain() returns concurrently.
        const std::lock_guard<std::mutex> lock(sync->mutex);
        sync->result = std::move(result);
        sync->error = std::move(error);
        sync->done = true;
        sync->cv.notify_all();
    }
}

std::vector<batch_engine::outcome> batch_engine::drain()
{
    using namespace std::chrono_literals;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (inflight_.empty()) {
                std::vector<outcome> done;
                done.swap(entries_);
                return done;
            }
        }
        if (!pool_->run_one()) {
            // Every remaining job is running on a worker; wait for a
            // resolve() instead of spinning.
            std::unique_lock<std::mutex> lock(mutex_);
            if (!inflight_.empty()) {
                idle_cv_.wait_for(lock, 200us);
            }
        }
    }
}

void batch_engine::set_completion_hook(completion_hook hook)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    MWL_ASSERT(inflight_.empty());
    hook_ = std::move(hook);
}

std::size_t batch_engine::pending() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const outcome& entry : entries_) {
        if (!entry.result && entry.error.empty()) {
            ++n;
        }
    }
    return n;
}

batch_stats batch_engine::stats() const
{
    const engine_stats snap = snapshot();
    batch_stats out;
    out.submitted = snap.submitted;
    out.executed = snap.executed;
    out.cache_hits = snap.cache_hits;
    out.coalesced = snap.coalesced;
    out.errors = snap.errors;
    return out;
}

engine_stats batch_engine::snapshot() const
{
    engine_stats snap;
    // Hits before submitted: every hit follows its submit, so this read
    // order keeps submitted >= hits even mid-flight.
    snap.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    snap.submitted = submitted_.load(std::memory_order_relaxed);
    snap.executed = executed_.load(std::memory_order_relaxed);
    snap.cache_misses = snap.submitted - snap.cache_hits;
    snap.coalesced = coalesced_.load(std::memory_order_relaxed);
    snap.errors = errors_.load(std::memory_order_relaxed);
    snap.evictions = cache_.evictions();
    snap.in_flight = in_flight_.load(std::memory_order_relaxed);
    snap.cache_size = cache_.size();
    snap.cache_capacity = cache_.capacity();
    return snap;
}

} // namespace mwl
