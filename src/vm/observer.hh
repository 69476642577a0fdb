/**
 * @file
 * Execution-event observer interface.
 *
 * The interpreter streams dynamic-execution events (bytecodes with
 * their micro-op cost, conditional branches, simulated memory
 * accesses, allocations, interpreter dispatches) to an observer. The
 * microarchitecture model implements this interface to derive cycles,
 * IPC, branch MPKI and cache MPKI; the profiler implements it to
 * attribute branches and allocations to bytecode sites. The VM takes
 * a single observer: each event is one virtual call.
 */

#ifndef RIGOR_VM_OBSERVER_HH
#define RIGOR_VM_OBSERVER_HH

#include <cstdint>

#include "vm/code.hh"

namespace rigor {
namespace vm {

/**
 * Observer of the VM's dynamic execution. All callbacks have empty
 * default implementations so observers override only what they need.
 * The defaults are defined out of line (observer.cc) on purpose: with
 * an inline empty body as the only implementation the VM can see,
 * g++ speculatively devirtualizes every hot-loop observer call to it,
 * a compare-and-branch the uarch model (the observer of every
 * measured run) then pays on each event.
 */
class ExecutionObserver
{
  public:
    virtual ~ExecutionObserver() = default;

    /**
     * One bytecode completed.
     * @param op the (possibly quickened) opcode.
     * @param uops micro-ops this bytecode expanded to, including any
     *        interpreter dispatch overhead.
     */
    virtual void onBytecode(Op op, uint32_t uops);

    /**
     * Interpreter dispatch: the indirect branch selecting the next
     * handler. Emitted by the dispatching tiers (baseline interpreter
     * and direct-threaded); the adaptive tier's compiled code has no
     * dispatch.
     * @param op the opcode being dispatched to.
     */
    virtual void onDispatch(Op op);

    /**
     * A conditional branch resolved.
     * @param site static branch site id (unique per bytecode pc).
     * @param taken branch outcome.
     */
    virtual void onBranch(uint64_t site, bool taken);

    /**
     * Instruction fetch for the code implementing this bytecode.
     * Interpreter tiers fetch from a small shared handler table
     * (one region per opcode); compiled code fetches from a
     * per-(code object, pc) region, giving the JIT a much larger
     * instruction footprint.
     */
    virtual void onCodeFetch(uint64_t addr);

    /** A simulated data-memory access. */
    virtual void onMemAccess(uint64_t addr, uint32_t size, bool is_write);

    /** A heap object allocated at the simulated address. */
    virtual void onAlloc(uint64_t addr, uint32_t size);

    /**
     * Bytecode-site attribution of an allocation (profiling).
     * @param site (codeId << 20) | pc of the allocating bytecode, the
     *        same encoding branch sites use; 0 when the allocation
     *        happened outside bytecode execution (VM setup).
     */
    virtual void onAllocSite(uint64_t site, uint32_t size);

    /**
     * The adaptive tier compiled a code object (modelled compile
     * pause) or the threaded tier quickened one up-front;
     * `cost_uops` is the modelled compilation/quickening work.
     */
    virtual void onJitCompile(uint32_t code_id, uint64_t cost_uops);

    /** A specialization guard failed (deoptimization to generic path). */
    virtual void onGuardFailure(Op op);
};

} // namespace vm
} // namespace rigor

#endif // RIGOR_VM_OBSERVER_HH
