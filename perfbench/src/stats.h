/**
 * @file
 * Small numeric and process helpers shared by the workloads: order
 * statistics matching Python's statistics.quantiles(n=4) (the
 * "exclusive" method), geometric means, and the process's CPU time
 * and peak resident set from getrusage().
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

namespace perfbench {

/** Quartiles {q1, median, q3} as statistics.quantiles(v, n=4) gives
 *  them (median alone for fewer than two samples). */
inline std::vector<double>
quartiles(std::vector<double> v)
{
    if (v.empty())
        return {0, 0, 0};
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    double med = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
    if (n < 2)
        return {med, med, med};
    auto q = [&](long i) {
        const long m = static_cast<long>(n) + 1;
        long j = std::clamp(i * m / 4, 1L, static_cast<long>(n) - 1);
        double delta = static_cast<double>(i * m - j * 4);
        return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
    };
    return {q(1), med, q(3)};
}

inline double
median(const std::vector<double> &v)
{
    return quartiles(v)[1];
}

/** Geometric mean of positive ratios (1.0 for an empty set). */
inline double
geomean(const std::vector<double> &ratios)
{
    if (ratios.empty())
        return 1.0;
    double logSum = 0;
    for (double r : ratios)
        logSum += std::log(r);
    return std::exp(logSum / static_cast<double>(ratios.size()));
}

/** User + system CPU seconds consumed so far by every thread. */
inline double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/**
 * Hand freed heap pages back to the kernel, then restart the
 * peak-resident-set count at the resulting resident set (Linux >= 4.0,
 * via /proc/self/clear_refs), so the next peakRssMb() covers what is
 * live now plus what the work after this call allocates. Returns false
 * where the reset is unsupported; peakRssMb() then keeps counting from
 * process start.
 */
inline bool
resetPeakRss()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

/** Peak resident set since start or the last reset, in MiB. */
inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

} // namespace perfbench

#endif
