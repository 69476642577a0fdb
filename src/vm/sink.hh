/**
 * @file
 * The VM's execution record stream. While a sink is attached, the
 * interpreter writes one fixed-size Record per modelled hardware event
 * into a buffer the Interp owns, in execution order, and hands each
 * full buffer to the sink in one virtual call. Plain counts are not
 * records: they are the VM's InterpStats, which come with every batch.
 */

#ifndef RIGOR_VM_SINK_HH
#define RIGOR_VM_SINK_HH

#include <cstdint>
#include <span>

#include "vm/code.hh"

namespace rigor {
namespace vm {

struct InterpStats;

/** One execution event. Fields a kind does not use stay zero. */
struct Record
{
    enum class Kind : uint8_t
    {
        /**
         * Instruction fetch of the code implementing one bytecode, at
         * `addr`: a shared per-opcode handler slot for interpreter
         * tiers, a per-(code object, pc) slot for compiled code.
         */
        Fetch,
        Dispatch,  ///< interpreter dispatch to `op`
        Branch,    ///< conditional branch at `site`; `flag` = taken
        Mem,       ///< `size`-byte data access at `addr`; `flag` = write
        Alloc,     ///< `size`-byte object at `addr`, allocated at `site`
        Guard,     ///< a specialization guard of `op` failed
    };

    uint64_t addr = 0;
    /** (codeId << 20) | pc; 0 for an Alloc during VM setup. */
    uint64_t site = 0;
    uint32_t size = 0;
    Kind kind = Kind::Fetch;
    Op op = Op::Nop;
    bool flag = false;
};

/** Consumer of the VM's record stream. */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    /**
     * The next batch of records, in execution order, and the VM's
     * counters at the moment the batch is handed over. Must not
     * throw: the VM also hands over a batch while it unwinds.
     */
    virtual void consume(std::span<const Record> records,
                         const InterpStats &stats) noexcept = 0;
};

} // namespace vm
} // namespace rigor

#endif // RIGOR_VM_SINK_HH
