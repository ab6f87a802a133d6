/**
 * @file
 * In-memory span tracer for the traced benchmark run. A Scope wraps
 * one call into a layer's public function and records its name,
 * start, end, thread, and the span that was open on the same thread
 * when it began (its parent). Spans stay in memory until the run
 * ends; writeChromeJson() emits them as Chrome trace-event JSON
 * (load it in chrome://tracing or Perfetto).
 *
 * A null Tracer* makes every Scope a no-op, so each replica pass runs
 * the same code traced and untraced; the difference between the two
 * is the tracing overhead the traced run reports.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock. */
int64_t nowNs();

class Tracer {
  public:
    struct Span {
        const char *name;  ///< a string literal: the layer's span name
        int64_t startNs;
        int64_t endNs;
        uint32_t id;       ///< 1-based; 0 means "no parent"
        uint32_t parent;
        uint32_t tid;      ///< small per-thread index
    };

    /** Opens a span on construction and records it on destruction. */
    class Scope {
      public:
        Scope(Tracer *t, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        const char *name_;
        int64_t start_ = 0;
        uint32_t id_ = 0;
        uint32_t parent_ = 0;
    };

    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Drop every recorded span (the span ids keep counting). */
    void clear();
    std::vector<Span> spans() const;

    /**
     * Self time per span name, in milliseconds: each span's duration
     * minus the durations of its direct children.
     */
    std::map<std::string, double> selfMillisByName() const;

    /** Write the spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    uint32_t nextId_ = 1;
};

} // namespace perfbench

#endif
