/**
 * @file
 * Structured trace emission in the Chrome trace-event JSON format
 * (loadable in Perfetto / chrome://tracing).
 *
 * Timestamps come from a *modelled* clock that instrumented code
 * advances explicitly (the harness advances it by each iteration's
 * modelled duration and each retry's modelled backoff), never from
 * the host clock. Traces of two identical runs are therefore
 * byte-identical and diffable, which turns a trace into a regression
 * artifact, not just a debugging aid.
 *
 * Supported event phases: duration spans (B/E pairs, which nest) and
 * thread-scoped instant events (i).
 */

#ifndef RIGOR_SUPPORT_TRACE_HH
#define RIGOR_SUPPORT_TRACE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "support/json.hh"

namespace rigor {

/**
 * Builds one Chrome trace-event document for a run. Not thread-safe:
 * one thread emits. The harness emits everything from its committing
 * thread, so a run's document is the same at any --jobs value.
 */
class TraceEmitter
{
  public:
    /** Advance the modelled clock by `ms` milliseconds. */
    void advanceMs(double ms) { clockMs += ms; }

    /** Current modelled time in trace units (microseconds). */
    double nowUs() const { return clockMs * 1000.0; }

    /**
     * Open a duration span at the current modelled time.
     * @param name event name (e.g. "iteration").
     * @param cat event category (e.g. "harness", "vm").
     * @param args optional JSON object attached to the event.
     */
    void beginSpan(const std::string &name, const std::string &cat,
                   Json args = Json());

    /** Close the innermost open span (panics if none is open). */
    void endSpan(Json args = Json());

    /** Emit an instant event at the current modelled time. */
    void instant(const std::string &name, const std::string &cat,
                 Json args = Json());

    /**
     * Emit the canonical log-mirror instant for a status message:
     * name = the level ("warn"/"info"), category "log", args
     * {"message": msg}. Every place that mirrors a status message
     * into a trace (the runner for its own warnings, the CLI for
     * suite progress) uses this single helper, so every mirrored
     * message has the same format.
     */
    void logInstant(const std::string &level, const std::string &msg);

    /** Number of currently open spans. */
    size_t openSpans() const { return openNames.size(); }

    /**
     * Close spans until only `depth` remain open. Exception-unwind
     * helper: callers snapshot openSpans() before a fallible region
     * and restore it on failure so the document stays well formed.
     */
    void endSpansTo(size_t depth);

    /** Total events emitted so far. */
    size_t eventCount() const { return events.size(); }

    /**
     * The complete document:
     *   {"displayTimeUnit": "ms", "traceEvents": [...]}
     * Open spans are not closed; call endSpansTo(0) first if the
     * emitter is mid-run.
     */
    Json toJson() const;

    /**
     * Mid-run snapshot for a resume checkpoint:
     *   {"clock_ms": c, "open_spans": [names...], "events": [...]}
     * Unlike toJson() this captures the emitter's full state — the
     * modelled clock (serialized directly, because re-deriving it from
     * the last event's microsecond timestamp would not be bit-exact)
     * and the span-nesting stack — so restoreCheckpoint() can continue
     * the very document an interrupted run was building.
     */
    Json checkpointJson() const;

    /**
     * Rebuild emitter state from a checkpointJson() snapshot. Must be
     * called on a pristine emitter (panics otherwise).
     * After the restore, further emissions continue the original
     * clock arithmetic, so a resumed run's final trace is
     * byte-identical to an uninterrupted one.
     */
    void restoreCheckpoint(const Json &doc);

  private:
    Json makeEvent(const char *phase, const std::string &name,
                   const std::string &cat) const;

    std::vector<Json> events;
    std::vector<std::string> openNames;  ///< span-nesting stack
    double clockMs = 0.0;
};

} // namespace rigor

#endif // RIGOR_SUPPORT_TRACE_HH
