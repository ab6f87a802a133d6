#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <unordered_map>

namespace perfbench {

namespace {

/** The span currently open on this thread (0 = none). */
thread_local uint32_t tlsOpen = 0;

uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t idx = next.fetch_add(1);
    return idx;
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Scope::Scope(Tracer *t, const char *name) : t_(t), name_(name)
{
    if (!t_)
        return;
    {
        std::lock_guard<std::mutex> lock(t_->mu_);
        id_ = t_->nextId_++;
    }
    parent_ = tlsOpen;
    tlsOpen = id_;
    start_ = nowNs();
}

Tracer::Scope::~Scope()
{
    if (!t_)
        return;
    int64_t end = nowNs();
    tlsOpen = parent_;
    std::lock_guard<std::mutex> lock(t_->mu_);
    t_->spans_.push_back({name_, start_, end, id_, parent_, threadIndex()});
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
}

std::vector<Tracer::Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::map<std::string, double>
Tracer::selfMillisByName() const
{
    std::vector<Span> all = spans();
    std::unordered_map<uint32_t, int64_t> childNs;
    for (const Span &s : all)
        if (s.parent)
            childNs[s.parent] += s.endNs - s.startNs;
    std::map<std::string, double> out;
    for (const Span &s : all) {
        int64_t self = s.endNs - s.startNs;
        if (auto it = childNs.find(s.id); it != childNs.end())
            self -= it->second;
        out[s.name] += static_cast<double>(self) / 1e6;
    }
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::vector<Span> all = spans();
    int64_t t0 = all.empty() ? 0 : all.front().startNs;
    for (const Span &s : all)
        t0 = std::min(t0, s.startNs);
    std::ofstream os(path);
    os << std::fixed << std::setprecision(3);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
           << ",\"ts\":" << static_cast<double>(s.startNs - t0) / 1e3
           << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << "}}";
    }
    os << "\n]}\n";
    os.flush();
    return static_cast<bool>(os);
}

} // namespace perfbench
