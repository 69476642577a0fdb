/**
 * @file
 * Measurement containers for the two-level experiment design:
 * a *run* consists of multiple VM *invocations*, each executing
 * multiple in-process *iterations* of a workload's entry function.
 */

#ifndef RIGOR_HARNESS_MEASUREMENT_HH
#define RIGOR_HARNESS_MEASUREMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "uarch/counters.hh"
#include "vm/interp.hh"

namespace rigor {
namespace harness {

/** Why an invocation attempt failed. */
enum class FailureKind
{
    VmError,          ///< the VM raised an error mid-run
    ChecksumMismatch, ///< workload result diverged (iteration or
                      ///< cross-invocation)
    DeadlineExceeded, ///< modelled time passed the per-invocation
                      ///< deadline
};

/** Short name of a failure kind ("vm-error", ...). */
const char *failureKindName(FailureKind k);

/**
 * Structured record of one failed invocation attempt. Failures are
 * data, not reasons to abort: they stay attached to the run so reports
 * can account for them, while the samples of failed attempts are
 * excluded from every estimate.
 */
struct InvocationFailure
{
    FailureKind kind = FailureKind::VmError;
    /** Invocation index whose attempt failed. */
    int invocation = 0;
    /** Attempt number (0 = first try, 1 = first retry, ...). */
    int attempt = 0;
    /** Seed the failed attempt ran with. */
    uint64_t seed = 0;
    /** Modelled backoff delay charged before the next attempt. */
    double backoffMs = 0.0;
    std::string message;
};

/** One in-process iteration's measurements. */
struct IterationSample
{
    /** Modelled execution time in milliseconds (noise applied). */
    double timeMs = 0.0;
    /**
     * Per-iteration perf-counter deltas; `cycles` is the noise-free
     * simulated cycle count behind timeMs.
     */
    uarch::CounterSet counters;
};

/** All measurements from one VM invocation. */
struct InvocationResult
{
    /** Seed that derived this invocation's hash seed / ASLR / noise. */
    uint64_t invocationSeed = 0;
    std::vector<IterationSample> samples;
    /** VM statistics at the end of the invocation. */
    vm::InterpStats vmStats;
    /** Workload checksum (must match across invocations). */
    int64_t checksum = 0;

    /** The per-iteration time series. */
    std::vector<double> times() const;
};

/** A complete experiment run for one (workload, tier) pair. */
struct RunResult
{
    std::string workload;
    vm::Tier tier = vm::Tier::Interp;
    int64_t size = 0;
    /** Successful invocations only; failed attempts never land here. */
    std::vector<InvocationResult> invocations;

    /** Every failed attempt, in execution order. */
    std::vector<InvocationFailure> failures;
    /**
     * Invocation slots consumed so far, including ones whose every
     * attempt failed (>= invocations.size()). Seed derivation keys on
     * this index, so extending a run stays deterministic even when
     * some invocations failed permanently.
     */
    int invocationsAttempted = 0;
    /** Consecutive permanently-failed invocations (quarantine input). */
    int consecutiveFailures = 0;
    /** True once the quarantine threshold tripped; no more attempts. */
    bool quarantined = false;
    std::string quarantineReason;
    /**
     * True when the run stopped early at a commit boundary because an
     * interrupt (SIGINT/SIGTERM) was requested. Not serialized:
     * a checkpointed run is incomplete iff
     * invocationsAttempted < the configured invocation count.
     */
    bool interrupted = false;

    /** series()[i][j]: iteration j of invocation i, in ms. */
    std::vector<std::vector<double>> series() const;

    /** Modelled ms summed over every successful iteration. */
    double totalModelledMs() const;

    /** Counter totals summed over all iterations and invocations. */
    uarch::CounterSet totalCounters() const;

    /** Dynamic per-opcode counts summed over invocations. */
    std::vector<uint64_t> opMix() const;
};

} // namespace harness
} // namespace rigor

#endif // RIGOR_HARNESS_MEASUREMENT_HH
