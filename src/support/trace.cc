#include "support/trace.hh"

#include "support/logging.hh"

namespace rigor {

Json
TraceEmitter::makeEvent(const char *phase, const std::string &name,
                        const std::string &cat) const
{
    Json e = Json::object();
    e.set("name", name);
    e.set("cat", cat);
    e.set("ph", phase);
    e.set("ts", nowUs());
    e.set("pid", 1);
    e.set("tid", 1);
    return e;
}

void
TraceEmitter::beginSpan(const std::string &name,
                        const std::string &cat, Json args)
{
    Json e = makeEvent("B", name, cat);
    if (!args.isNull())
        e.set("args", std::move(args));
    events.push_back(std::move(e));
    openNames.push_back(name);
}

void
TraceEmitter::endSpan(Json args)
{
    if (openNames.empty())
        panic("TraceEmitter::endSpan: no open span");
    // The E event inherits name/cat from its B partner; repeating
    // the name keeps the file greppable.
    Json e = makeEvent("E", openNames.back(), "");
    if (!args.isNull())
        e.set("args", std::move(args));
    events.push_back(std::move(e));
    openNames.pop_back();
}

void
TraceEmitter::instant(const std::string &name, const std::string &cat,
                      Json args)
{
    Json e = makeEvent("i", name, cat);
    e.set("s", "t");  // thread-scoped instant
    if (!args.isNull())
        e.set("args", std::move(args));
    events.push_back(std::move(e));
}

void
TraceEmitter::logInstant(const std::string &level,
                         const std::string &msg)
{
    Json args = Json::object();
    args.set("message", msg);
    instant(level, "log", std::move(args));
}

void
TraceEmitter::endSpansTo(size_t depth)
{
    while (openNames.size() > depth)
        endSpan();
}

Json
TraceEmitter::toJson() const
{
    Json root = Json::object();
    root.set("displayTimeUnit", "ms");
    Json evs = Json::array();
    for (const auto &e : events)
        evs.push(e);
    root.set("traceEvents", std::move(evs));
    return root;
}

Json
TraceEmitter::checkpointJson() const
{
    Json root = Json::object();
    root.set("clock_ms", clockMs);
    Json open = Json::array();
    for (const auto &name : openNames)
        open.push(name);
    root.set("open_spans", std::move(open));
    Json evs = Json::array();
    for (const auto &e : events)
        evs.push(e);
    root.set("events", std::move(evs));
    return root;
}

void
TraceEmitter::restoreCheckpoint(const Json &doc)
{
    if (!events.empty() || !openNames.empty() || clockMs != 0.0)
        panic("TraceEmitter::restoreCheckpoint: emitter is not "
              "pristine");
    clockMs = doc.at("clock_ms").asDouble();
    const Json &open = doc.at("open_spans");
    for (size_t i = 0; i < open.size(); ++i)
        openNames.push_back(open.at(i).asString());
    const Json &evs = doc.at("events");
    for (size_t i = 0; i < evs.size(); ++i)
        events.push_back(evs.at(i));
}

} // namespace rigor
