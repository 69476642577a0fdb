/**
 * @file
 * The performance model: an EventSink that simulates the VM's record
 * stream (vm/sink.hh) as simulated cycles and perf counters. The plain
 * counts (bytecodes, instructions, dispatches, allocations, bytes) are
 * the VM's InterpStats, taken with each batch.
 *
 * The timing model is additive: committed micro-ops retire at the
 * machine's issue width; branch/dispatch mispredictions and cache
 * misses add penalty cycles on top. Each data line goes to the cache
 * hierarchy, which answers with the level that hit; the miss counters
 * and the latency follow from that level. Memory-level parallelism is
 * modelled by scaling miss latency with an overlap factor, as a stand
 * -in for out-of-order overlap.
 */

#ifndef RIGOR_UARCH_PERF_MODEL_HH
#define RIGOR_UARCH_PERF_MODEL_HH

#include <memory>

#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/counters.hh"
#include "vm/sink.hh"

namespace rigor {
namespace uarch {

/** Knobs of the performance model. */
struct PerfModelConfig
{
    /** Micro-ops retired per cycle at best. */
    double issueWidth = 4.0;
    /** Penalty cycles per conditional-branch mispredict. */
    uint32_t branchMissPenalty = 14;
    /** Penalty cycles per mispredicted interpreter dispatch. */
    uint32_t dispatchMissPenalty = 18;
    /** Fraction of miss latency exposed (models OoO/MLP overlap). */
    double memOverlapFactor = 0.45;
    /**
     * Opcode-history depth available to the dispatch predictor.
     * ~2 models a switch-based interpreter (one shared indirect
     * branch); ~6 models threaded code (per-handler branches).
     */
    unsigned dispatchHistoryOps = 2;
    /** Conditional predictor flavour. */
    enum class Predictor { Bimodal, Gshare } predictor =
        Predictor::Gshare;
    /** Model caches (false = cost-model-only ablation). */
    bool modelCaches = true;
    /** Penalty cycles per L1I miss (refill from L2). */
    uint32_t l1iMissPenalty = 10;
    /** Model branch predictors (false = fixed rates ablation). */
    bool modelBranches = true;
};

/** EventSink that simulates the microarchitecture. */
class PerfModel final : public vm::EventSink
{
  public:
    explicit PerfModel(PerfModelConfig config = {});

    /** Simulate the records in order; take the VM's plain counts. */
    void consume(std::span<const vm::Record> records,
                 const vm::InterpStats &stats) noexcept override;

    /** Current counter values (cycles computed on the fly). */
    CounterSet snapshot() const;

    /** Reset counters AND microarchitectural state (cold start). */
    void reset();

  private:
    /** A data access of `size` bytes: every line it spans. */
    void memAccess(uint64_t addr, uint32_t size, bool is_write);

    PerfModelConfig cfg;
    CounterSet counters;
    double penaltyCycles = 0.0;

    std::unique_ptr<BranchPredictor> branchPred;
    DispatchPredictor dispatchPred;
    CacheHierarchy caches;
    Cache icache;
};

} // namespace uarch
} // namespace rigor

#endif // RIGOR_UARCH_PERF_MODEL_HH
