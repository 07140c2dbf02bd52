// The unified branch-and-bound engine (serial == one worker, inline).
// Concurrency design notes live in parallel_bnb.hpp; correctness
// arguments (why racy incumbent reads are conservative, why the
// best-bound aggregation never loses a node) in src/ilp/README.md.
#include "ilp/parallel_bnb.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/stopwatch.hpp"

namespace wishbone::ilp {

namespace {

/// One bound change: variable `var` restricted to [lo, up].
struct BoundDelta {
  int var;
  double lo;
  double up;
};

/// One link in a node's chain of bound changes back to the root: the
/// branching delta plus any reduced-cost fixings discovered alongside
/// it. Ancestry is shared (shared_ptr spine), so a node costs one link
/// instead of two n-sized bound vectors — and the links ship across
/// worker threads for free (immutable after construction).
struct DeltaLink {
  std::shared_ptr<const DeltaLink> parent;
  std::vector<BoundDelta> deltas;
};

struct Node {
  std::shared_ptr<const DeltaLink> chain;  ///< null = root bounds
  double parent_bound = -kInf;  ///< LP bound of the parent (for pruning)
  std::size_t depth = 0;
  /// Global creation index: the exact LIFO key in depth-first mode and
  /// the run-to-run-stable identity of a node in either mode.
  std::uint64_t seq = 0;
  /// Basis of the parent LP that spawned this node (threads > 1 only;
  /// shared by both siblings). A stealing worker reloads it instead of
  /// phase-1-repairing from whatever unrelated basis it last held.
  std::shared_ptr<const Basis> snapshot;
};

/// std-heap "less": true when `a` pops *after* `b`. Best-first orders
/// by bound, then depth (deeper first, diving toward incumbents);
/// remaining ties resolve by the heap's deterministic sift order —
/// push/pop sequences are identical run to run in serial, so serial
/// walks are bit-reproducible, and parallel runs only promise
/// objective reproducibility anyway. Depth-first is an exact LIFO on
/// the creation index (the PR 1 stack semantics).
///
/// A *total* order on (bound, depth, seq) was measured and rejected:
/// the Fig. 6 EEG instances are so degenerate that most of the tree
/// ties on (bound, depth), and every pure tie policy loses badly
/// against the heap's mixed order on the 16-point node-budget sweep —
/// oldest-first 617k LP iterations, dive-preferred-first 676k,
/// splitmix-shuffled 905k, newest-first 1.26M, vs 556k for heap-order
/// ties (which reproduces the PR 2 snapshot bit-for-bit).
struct NodeCompare {
  bool depth_first;
  bool operator()(const Node& a, const Node& b) const {
    if (depth_first) return a.seq < b.seq;
    if (a.parent_bound != b.parent_bound) {
      return a.parent_bound > b.parent_bound;
    }
    return a.depth < b.depth;
  }
};

/// Index of the most fractional integer variable, or -1 if integral.
int pick_branch_var(const LinearProgram& lp, const std::vector<double>& x,
                    double tol) {
  int best = -1;
  double best_dist = tol;
  for (int v = 0; v < lp.num_variables(); ++v) {
    if (!lp.is_integer(v)) continue;
    const double frac = x[v] - std::floor(x[v]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_dist) {
      best_dist = dist;
      best = v;
    }
  }
  return best;
}

/// One pool shard: a deterministic heap owned by one worker, stealable
/// by the others.
struct alignas(64) Shard {
  std::mutex mu;
  std::vector<Node> heap;
};

struct alignas(64) PaddedBound {
  std::atomic<double> v{kInf};
};

class Search {
 public:
  Search(const LinearProgram& lp, const MipOptions& opts, int num_workers)
      : lp_(lp), opts_(opts), num_workers_(num_workers),
        cmp_{opts.depth_first}, n_(lp.num_variables()) {
    // Pre-flight the inherited basis once, not once per worker: a
    // basis threaded in from a previous solve (rate-search probe,
    // partition-server cache neighbor) is only loadable when the
    // formulation kept the same shape and constraint structure. An
    // incompatible basis means a cold start, surfaced through
    // MipResult::warm_basis_rejected so callers can count stale
    // inherits instead of silently paying for N futile load attempts.
    if (opts_.warm_basis && !opts_.warm_basis->empty()) {
      warm_reject_ = opts_.warm_basis->compatibility_with(lp);
      warm_compatible_ = warm_reject_ == BasisRejectReason::kNone;
    }
    root_lo_.resize(n_);
    root_hi_.resize(n_);
    for (int v = 0; v < n_; ++v) {
      root_lo_[v] = lp.lower(v);
      root_hi_[v] = lp.upper(v);
    }
    shards_.reserve(num_workers_);
    for (int w = 0; w < num_workers_; ++w) {
      shards_.push_back(std::make_unique<Shard>());
    }
    inflight_ = std::make_unique<PaddedBound[]>(num_workers_);
    tels_.resize(num_workers_);
    exits_.resize(num_workers_);
  }

  MipResult run() {
    MipResult res;
    res.threads_used = static_cast<std::size_t>(num_workers_);

    // Span around the whole search; its context parents the per-node
    // and basis spans the workers record. Unsampled = two branches.
    obs::Span search_span =
        obs::Tracer::global().span("bnb.search", opts_.trace);
    search_ctx_ = search_span.context();

    if (opts_.warm_start) {
      WB_REQUIRE(static_cast<int>(opts_.warm_start->size()) == n_,
                 "warm start has wrong dimension");
      if (lp_.max_violation(*opts_.warm_start) <= opts_.int_tol) {
        std::vector<double> x0 = *opts_.warm_start;
        const double obj = lp_.objective_value(x0);
        try_update_incumbent(std::move(x0), obj, /*node=*/0, /*worker=*/0);
      }
    }

    // Root node seeds shard 0; idle workers steal it (or its children).
    push(/*shard=*/0, Node{nullptr, -kInf, 0, seq_.fetch_add(1), nullptr});

    if (num_workers_ == 1) {
      run_worker(0);  // serial specialization: inline, no spawn
    } else {
      std::vector<std::thread> threads;
      threads.reserve(num_workers_);
      for (int w = 0; w < num_workers_; ++w) {
        threads.emplace_back([this, w] { run_worker(w); });
      }
      for (std::thread& t : threads) t.join();
    }

    search_span.finish();

    res.time_total = clock_.elapsed_seconds();
    res.nodes_explored = nodes_explored_.load();
    for (const WorkerTelemetry& t : tels_) {
      res.lp_iterations += t.lp_iterations;
      res.vars_fixed_by_reduced_cost += t.vars_fixed_by_reduced_cost;
      res.steals += t.steals;
      res.snapshot_reloads += t.snapshot_reloads;
      res.idle_s_total += t.idle_s;
    }
    res.workers = tels_;

    res.has_incumbent = has_inc_;
    if (has_inc_) {
      res.objective = inc_obj_;
      res.x = inc_x_;
    }
    res.incumbents = std::move(records_);
    res.time_to_first_incumbent = t_first_;
    res.time_to_best_incumbent = t_best_;

    const int basis_from = has_inc_ && inc_worker_ >= 0 ? inc_worker_ : 0;
    res.final_basis = std::move(exits_[basis_from].final_basis);
    res.warm_basis_loaded = warm_loaded_;
    res.warm_basis_rejected =
        opts_.warm_basis && !opts_.warm_basis->empty() && !warm_compatible_;
    // Pre-flight rejections carry their reason; a compatible basis that
    // still failed to load (singular factorization) reports the reason
    // worker 0's load recorded.
    if (res.warm_basis_rejected) {
      res.warm_basis_reject_reason = warm_reject_;
    } else if (opts_.warm_basis && !opts_.warm_basis->empty() &&
               !warm_loaded_) {
      res.warm_basis_reject_reason = warm_load_reject_;
    }
    res.basis_engine = exits_[0].engine;
    for (const WorkerExit& e : exits_) {
      res.basis_refactorizations += e.basis.refactorizations;
      res.eta_updates += e.basis.eta_updates;
      res.eta_len_peak = std::max(res.eta_len_peak, e.basis.eta_len_peak);
      res.ftran_calls += e.basis.ftran_calls;
      res.ftran_nnz += e.basis.ftran_nnz;
      res.factor_row_entries += e.basis.factor_row_entries;
      res.btran_calls += e.basis.btran_calls;
      res.btran_unit_calls += e.basis.btran_unit_calls;
      res.btran_unit_nnz += e.basis.btran_unit_nnz;
      res.reduced_cost_rebuilds += e.tel.reduced_cost_rebuilds;
      res.phase1_reentries += e.tel.phase1_reentries;
      res.primal_pivots += e.tel.primal_pivots;
    }

    // Proven lower bound: the least bound among unexplored nodes (no
    // locks needed — workers are joined); exhausted tree = incumbent.
    double open_bound = kInf;
    for (const auto& s : shards_) {
      for (const Node& nd : s->heap) {
        open_bound = std::min(open_bound, nd.parent_bound);
      }
    }
    res.best_bound = std::isfinite(open_bound)
                         ? open_bound
                         : (has_inc_ ? inc_obj_ : kInf);
    if (hit_limit_.load()) {
      res.status = SolveStatus::kIterationLimit;
    } else if (!has_inc_) {
      res.status = SolveStatus::kInfeasible;
    } else {
      res.status = SolveStatus::kOptimal;
      res.best_bound = res.objective;
    }

    publish_metrics(res);
    return res;
  }

 private:
  /// Aggregate counters into the process-wide registry, once per solve
  /// (never per node — the search hot path stays registry-free).
  /// Instrument pointers resolve once per process.
  static void publish_metrics(const MipResult& res) {
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter* const solves = reg.counter("wishbone_bnb_solves");
    static obs::Counter* const nodes = reg.counter("wishbone_bnb_nodes");
    static obs::Counter* const lp_iters =
        reg.counter("wishbone_bnb_lp_iterations");
    static obs::Counter* const steals = reg.counter("wishbone_bnb_steals");
    static obs::Counter* const reloads =
        reg.counter("wishbone_bnb_snapshot_reloads");
    static obs::Counter* const refactors =
        reg.counter("wishbone_bnb_basis_refactorizations");
    static obs::Counter* const warm_rejected =
        reg.counter("wishbone_bnb_warm_basis_rejected");
    static obs::Counter* const reentries_phase1 =
        reg.counter("wishbone_bnb_reentries", {{"mode", "phase1"}});
    static obs::Counter* const pivots_primal =
        reg.counter("wishbone_bnb_pivots", {{"loop", "primal"}});
    solves->inc();
    nodes->inc(res.nodes_explored);
    lp_iters->inc(res.lp_iterations);
    steals->inc(res.steals);
    reloads->inc(res.snapshot_reloads);
    refactors->inc(res.basis_refactorizations);
    if (res.warm_basis_rejected) warm_rejected->inc();
    reentries_phase1->inc(res.phase1_reentries);
    pivots_primal->inc(res.primal_pivots);
  }

  /// Worker-private solving context: the whole point of the design is
  /// that nothing in here is ever touched by another thread.
  struct WorkerContext {
    SimplexState state;
    std::vector<int> applied_vars;
    std::vector<const DeltaLink*> link_scratch;
  };

  void notify_all_idle() {
    std::lock_guard<std::mutex> lk(idle_mu_);
    idle_cv_.notify_all();
  }

  void push(int shard, Node nd) {
    Shard& s = *shards_[shard];
    work_.fetch_add(1);
    open_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lk(s.mu);
      s.heap.push_back(std::move(nd));
      std::push_heap(s.heap.begin(), s.heap.end(), cmp_);
    }
    // The idle wakeup has no consumer in a serial solve (the inline
    // worker never waits) — skip it on the default threads=1 path.
    if (num_workers_ > 1) {
      std::lock_guard<std::mutex> lk(idle_mu_);
      idle_cv_.notify_one();
    }
  }

  std::optional<Node> try_pop(int shard, int worker) {
    Shard& s = *shards_[shard];
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.heap.empty()) return std::nullopt;
    std::pop_heap(s.heap.begin(), s.heap.end(), cmp_);
    Node nd = std::move(s.heap.back());
    s.heap.pop_back();
    open_.fetch_sub(1);
    if (num_workers_ > 1) {
      // Publish the in-flight bound under the same lock that removes
      // the node from the shard: at every instant the node is visible
      // to global_best_bound() in the shard, the slot, or both.
      inflight_[worker].v.store(nd.parent_bound);
    }
    return nd;
  }

  /// Marks the in-flight node resolved; wakes everyone when the tree is
  /// exhausted. Children (if any) were pushed before this is called, so
  /// `work_` can only reach zero when the search is truly done.
  void complete(int worker) {
    if (num_workers_ > 1) inflight_[worker].v.store(kInf);
    if (work_.fetch_sub(1) == 1 && num_workers_ > 1) notify_all_idle();
  }

  /// The clock or node budget just ran out. Open nodes can never be
  /// processed now, so their presence means a censored run — but when
  /// only *in-flight* nodes remain, the tree may still exhaust (their
  /// leaves close it) and the run is then a completed proof, exactly
  /// as the serial loop of old decided by checking emptiness before
  /// the budget. Wait for the picture to settle.
  void resolve_limit() {
    for (;;) {
      if (work_.load() == 0) {
        notify_all_idle();
        return;  // exhausted: proved, not censored
      }
      if (open_.load() > 0) {
        hit_limit_.store(true);
        stop_.store(true);
        notify_all_idle();
        return;
      }
      std::unique_lock<std::mutex> lk(idle_mu_);
      idle_cv_.wait_for(lk, std::chrono::microseconds(200));
    }
  }

  /// Global lower bound over every unresolved subtree: min over the
  /// open nodes of all shards and the in-flight slots. Takes every
  /// shard lock (in index order — pushers take one at a time, so no
  /// deadlock), which freezes node movement for the scan: a popped
  /// node publishes its slot under the lock that removes it, so it is
  /// visible in the shard, the slot, or both at every instant, and a
  /// completing worker clears its slot only *after* its children's
  /// pushes (which block on the held locks) land. A stale slot read
  /// (parent bound ≤ its children's bounds) only lowers the result —
  /// conservative. Called from the idle path only; the pruning /
  /// fixing hot paths never touch it.
  double global_best_bound() {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (const auto& s : shards_) locks.emplace_back(s->mu);
    double b = kInf;
    for (int w = 0; w < num_workers_; ++w) {
      b = std::min(b, inflight_[w].v.load());
    }
    for (const auto& s : shards_) {
      for (const Node& nd : s->heap) b = std::min(b, nd.parent_bound);
    }
    return b;
  }

  bool try_update_incumbent(std::vector<double> x, double obj,
                            std::size_t node, int worker) {
    std::lock_guard<std::mutex> lk(inc_mu_);
    if (has_inc_ && !(obj < inc_obj_ - opts_.gap_abs)) return false;
    inc_obj_ = obj;
    incumbent_.store(obj);
    inc_x_ = std::move(x);
    has_inc_ = true;
    inc_worker_ = worker;
    const double now = clock_.elapsed_seconds();
    if (t_first_ < 0) t_first_ = now;
    t_best_ = now;
    records_.push_back({now, obj, node});
    return true;
  }

  /// Resets the bounds the worker's state carries from its previous
  /// node and replays the incoming node's delta chain root-to-leaf
  /// (later links only tighten, so replay order makes the leaf win).
  void apply_chain(WorkerContext& ctx, const Node& nd) {
    for (int v : ctx.applied_vars) {
      ctx.state.set_bounds(v, root_lo_[v], root_hi_[v]);
    }
    ctx.applied_vars.clear();
    ctx.link_scratch.clear();
    for (const DeltaLink* l = nd.chain.get(); l != nullptr;
         l = l->parent.get()) {
      ctx.link_scratch.push_back(l);
    }
    for (auto it = ctx.link_scratch.rbegin(); it != ctx.link_scratch.rend();
         ++it) {
      for (const BoundDelta& d : (*it)->deltas) {
        ctx.state.set_bounds(d.var, d.lo, d.up);
        ctx.applied_vars.push_back(d.var);
      }
    }
  }

  /// Pops the next node: own shard first, then a round-robin steal
  /// sweep. Returns nullopt when the search is over (tree exhausted,
  /// gap closed, limit hit, or another worker failed).
  std::optional<Node> acquire(int w, WorkerTelemetry& tel, bool& stolen) {
    stolen = false;
    for (;;) {
      if (stop_.load()) return std::nullopt;
      // Exhaustion outranks the limits, as in the serial loop of old:
      // a tree that empties on exactly the last budgeted node is a
      // completed proof, not a censored run.
      if (work_.load() == 0) {
        notify_all_idle();
        return std::nullopt;
      }
      if (clock_.elapsed_seconds() > opts_.time_limit_s ||
          nodes_explored_.load() >= opts_.max_nodes) {
        resolve_limit();
        return std::nullopt;
      }
      if (auto nd = try_pop(w, w)) return nd;
      for (int i = 1; i < num_workers_; ++i) {
        if (auto nd = try_pop((w + i) % num_workers_, w)) {
          stolen = true;
          ++tel.steals;
          return nd;
        }
      }
      if (work_.load() == 0) {
        notify_all_idle();
        return std::nullopt;
      }
      // Nothing stealable but nodes are in flight. If the global scan
      // proves every open subtree is already above the incumbent
      // cutoff, the proof is complete — stop the whole search instead
      // of waiting for each node to be popped and pruned one by one.
      const double inc = incumbent_.load();
      if (std::isfinite(inc)) {
        const double margin =
            std::max(opts_.gap_abs, opts_.gap_rel * std::fabs(inc));
        if (global_best_bound() >= inc - margin) {
          stop_.store(true);
          notify_all_idle();
          return std::nullopt;
        }
      }
      const double t0 = clock_.elapsed_seconds();
      {
        std::unique_lock<std::mutex> lk(idle_mu_);
        idle_cv_.wait_for(lk, std::chrono::milliseconds(1));
      }
      tel.idle_s += clock_.elapsed_seconds() - t0;
    }
  }

  void process(int w, WorkerContext& ctx, Node nd, bool stolen,
               WorkerTelemetry& tel) {
    // Prune against the incumbent before paying for the LP. A stale
    // (higher) incumbent read prunes *less* — conservative, so racy
    // lock-free reads are sound here and in the fixing pass below.
    const double inc0 = incumbent_.load();
    const double prune_margin =
        std::max(opts_.gap_abs, opts_.gap_rel * std::fabs(inc0));
    if (nd.parent_bound >= inc0 - prune_margin) {
      complete(w);
      return;
    }

    // Claim a node-budget ticket *before* the LP so the budget is
    // exact at any thread count: acquire()'s pre-pop check races with
    // siblings near the boundary, and without the ticket N workers
    // could each overshoot by one. An over-budget claim is returned —
    // ticket and node both — and the run resolves as censored (the
    // node we just gave back is open and will never be processed).
    const std::size_t node_idx = nodes_explored_.fetch_add(1) + 1;
    if (node_idx > opts_.max_nodes) {
      nodes_explored_.fetch_sub(1);
      push(w, std::move(nd));
      complete(w);
      hit_limit_.store(true);
      stop_.store(true);
      notify_all_idle();
      return;
    }

    // Per-node span under the search span. A sampled trace records
    // every node this search expands; the per-thread ring wraps, so a
    // long proof keeps only its most recent window — exactly the
    // flight-recorder use.
    obs::Span node_span =
        obs::Tracer::global().span("bnb.node", search_ctx_);

    apply_chain(ctx, nd);
    if (stolen && nd.snapshot && opts_.warm_lp) {
      // A stolen node is far from this worker's previous subtree: its
      // own basis would need a long phase-1 repair. Reload the parent
      // snapshot instead — one refactorization, then the node LP is a
      // single bound edit away. load_basis falls back to a cold basis
      // on failure, which is still correct.
      obs::Span load_span =
          obs::Tracer::global().span("basis.load", node_span.context());
      if (ctx.state.load_basis(*nd.snapshot)) ++tel.snapshot_reloads;
    }
    if (!opts_.warm_lp) ctx.state.reset();  // seed behavior: cold per node
    const LpSolution rel = ctx.state.solve();
    tel.lp_iterations += rel.iterations;
    ++tel.nodes_explored;

    if (rel.status == SolveStatus::kInfeasible) {
      complete(w);
      return;
    }
    if (rel.status != SolveStatus::kOptimal) {
      // Numerical failure in a node LP: report as a censored run.
      hit_limit_.store(true);
      stop_.store(true);
      complete(w);
      notify_all_idle();
      return;
    }

    // Primal rounding heuristic on shallow nodes (must be reentrant
    // when threads > 1 — see MipOptions::threads).
    if (opts_.rounding_hook && nd.depth <= opts_.rounding_depth) {
      if (auto cand = opts_.rounding_hook(rel.x)) {
        if (static_cast<int>(cand->size()) == n_ &&
            lp_.max_violation(*cand) <= opts_.int_tol) {
          const double obj = lp_.objective_value(*cand);
          try_update_incumbent(std::move(*cand), obj, node_idx, w);
        }
      }
    }

    // (Re)read the incumbent: the hook (or another worker) may have
    // tightened it while the LP was solving.
    const double inc1 = incumbent_.load();
    const double node_margin =
        std::max(opts_.gap_abs, opts_.gap_rel * std::fabs(inc1));
    if (rel.objective >= inc1 - node_margin) {
      complete(w);
      return;
    }

    const int branch = pick_branch_var(lp_, rel.x, opts_.int_tol);
    if (branch < 0) {
      // Integral: new incumbent.
      std::vector<double> xi = rel.x;
      for (int v = 0; v < n_; ++v) {
        if (lp_.is_integer(v)) xi[v] = std::round(xi[v]);
      }
      const double obj = lp_.objective_value(xi);
      try_update_incumbent(std::move(xi), obj, node_idx, w);
      complete(w);
      return;
    }

    // Reduced-cost fixing (both children inherit these): a nonbasic
    // integer variable resting on a bound whose reduced cost alone
    // lifts this node's LP bound past the incumbent cutoff can never
    // move in an *improving* subtree solution — pin it. Only integral
    // bounds qualify. The fixings ride the node's own delta chain, so
    // they stay subtree-local no matter which worker picks the
    // children up; the incumbent read is racy but only ever *higher*
    // than the true incumbent, which weakens the cutoff and fixes
    // fewer variables — never an unsound fix.
    std::vector<BoundDelta> fixings;
    if (opts_.reduced_cost_fixing && std::isfinite(inc1)) {
      const double cutoff = inc1 - node_margin;
      const std::vector<double>& rc = ctx.state.reduced_costs();
      for (int v = 0; v < n_; ++v) {
        if (!lp_.is_integer(v)) continue;
        const double lo = ctx.state.lower(v);
        const double up = ctx.state.upper(v);
        if (lo == up || up - lo < 1.0 - opts_.int_tol) continue;
        if (std::floor(lo) != lo || std::floor(up) != up) continue;
        if (rc[v] > 0.0 && rel.x[v] <= lo + opts_.int_tol &&
            rel.objective + rc[v] >= cutoff) {
          fixings.push_back({v, lo, lo});
        } else if (rc[v] < 0.0 && rel.x[v] >= up - opts_.int_tol &&
                   rel.objective - rc[v] >= cutoff) {
          fixings.push_back({v, up, up});
        }
      }
      tel.vars_fixed_by_reduced_cost += fixings.size();
    }

    // Branch: floor side and ceil side, as deltas on this node's chain.
    // Children go to this worker's own shard — they are one bound away
    // from the basis its state holds right now, so keeping them local
    // preserves the warm-start locality that made PR 1 fast. With more
    // than one worker, capture the parent basis once so a *stealing*
    // worker can reload it instead of repairing a stale basis.
    std::shared_ptr<const Basis> snap;
    if (num_workers_ > 1 && opts_.warm_lp) {
      snap = std::make_shared<const Basis>(ctx.state.extract_basis());
    }
    const double xb = rel.x[branch];
    auto extend = [&](double lo, double up) {
      auto link = std::make_shared<DeltaLink>();
      link->parent = nd.chain;
      link->deltas = fixings;
      link->deltas.push_back({branch, lo, up});
      return link;
    };
    Node down{extend(ctx.state.lower(branch), std::floor(xb)), rel.objective,
              nd.depth + 1, 0, snap};
    Node up{extend(std::ceil(xb), ctx.state.upper(branch)), rel.objective,
            nd.depth + 1, 0, snap};
    if (opts_.depth_first && xb - std::floor(xb) > 0.5) {
      // Dive toward the side nearest the LP value: the favored child
      // gets the larger creation index, so the LIFO order pops it first.
      down.seq = seq_.fetch_add(1);
      up.seq = seq_.fetch_add(1);
    } else {
      up.seq = seq_.fetch_add(1);
      down.seq = seq_.fetch_add(1);
    }
    push(w, std::move(down));
    push(w, std::move(up));
    complete(w);
  }

  void run_worker(int w) {
    WorkerTelemetry& tel = tels_[w];
    WorkerContext ctx{SimplexState(lp_, opts_.lp), {}, {}};
    if (warm_compatible_ && opts_.warm_basis && !opts_.warm_basis->empty()) {
      // Every worker inherits the caller's basis: any of them may end
      // up solving the root (or an early steal) and the load is one
      // refactorization against a search of many node LPs.
      obs::Span load_span =
          obs::Tracer::global().span("basis.load", search_ctx_);
      const bool ok = ctx.state.load_basis(*opts_.warm_basis);
      if (w == 0) {
        warm_loaded_ = ok;
        if (!ok) warm_load_reject_ = ctx.state.last_load_reject();
      }
    }
    for (;;) {
      bool stolen = false;
      std::optional<Node> nd = acquire(w, tel, stolen);
      if (!nd) break;
      process(w, ctx, std::move(*nd), stolen, tel);
    }
    exits_[w] = WorkerExit{ctx.state.extract_basis(),
                           ctx.state.basis_stats(),
                           ctx.state.engine_kind(),
                           ctx.state.telemetry()};
  }

  const LinearProgram& lp_;
  const MipOptions& opts_;
  const int num_workers_;
  const NodeCompare cmp_;
  const int n_;
  util::Stopwatch clock_;

  std::vector<double> root_lo_, root_hi_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<PaddedBound[]> inflight_;

  /// Open nodes + in-flight nodes; the search is over at zero. Child
  /// pushes increment before the parent's completion decrements, so
  /// zero is unreachable while any subtree is unresolved.
  std::atomic<std::size_t> work_{0};
  /// Nodes currently sitting in a shard (work_ minus in-flight):
  /// resolve_limit() distinguishes "censored, nodes left behind" from
  /// "in-flight tail may still exhaust the tree" with it.
  std::atomic<std::size_t> open_{0};
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::size_t> nodes_explored_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> hit_limit_{false};

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  /// Lock-free mirror of the incumbent objective (kInf = none) read by
  /// the pruning / fixing hot paths; the full record updates under
  /// inc_mu_ with a re-check.
  std::atomic<double> incumbent_{kInf};
  std::mutex inc_mu_;
  double inc_obj_ = kInf;
  std::vector<double> inc_x_;
  bool has_inc_ = false;
  int inc_worker_ = -1;
  double t_first_ = -1.0;
  double t_best_ = -1.0;
  std::vector<IncumbentRecord> records_;

  /// What a worker leaves behind when it exits: one slot per worker,
  /// written only by that worker, read after join().
  struct WorkerExit {
    Basis final_basis;
    BasisEngineStats basis;
    BasisEngineKind engine = BasisEngineKind::kDense;
    SimplexTelemetry tel;
  };

  std::vector<WorkerTelemetry> tels_;
  std::vector<WorkerExit> exits_;
  bool warm_loaded_ = false;
  bool warm_compatible_ = true;
  BasisRejectReason warm_reject_ = BasisRejectReason::kNone;
  /// Worker 0's load failure reason when the pre-flight passed but the
  /// load itself did not (singular factorization).
  BasisRejectReason warm_load_reject_ = BasisRejectReason::kNone;
  /// Context of the bnb.search span; written in run() before workers
  /// spawn, read-only afterwards.
  obs::TraceContext search_ctx_;
};

}  // namespace

MipResult ParallelBranchAndBound::solve(const LinearProgram& lp,
                                        const MipOptions& opts) const {
  std::size_t workers = opts.threads;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  // Clamp before the int cast: a garbage thread count (e.g. a CLI
  // "-1" pushed through size_t) must degrade to a bounded worker
  // pool, not truncate arbitrarily or build a shardless Search.
  workers = std::min<std::size_t>(workers, 512);
  Search search(lp, opts, static_cast<int>(workers));
  return search.run();
}

}  // namespace wishbone::ilp
