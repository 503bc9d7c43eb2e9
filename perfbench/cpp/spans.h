/**
 * @file
 * Host-time spans recorded from outside the program: the benchmark
 * wraps each call it makes into a layer (Cloud construction, each
 * provisioning or boot call, run(), teardown, each probe) in a Span.
 * Spans stay in memory and are written out once, as Chrome trace JSON,
 * when the traced run ends. A span nests under whichever span encloses
 * it in time on the same thread, which is the call that caused it.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/types.h"

namespace perfbench {

using mirage::i64;

class SpanLog
{
  public:
    struct Span
    {
        std::string layer; //!< src/ module the call enters
        std::string name;
        std::string variant; //!< which run of the traced set
        i64 t0_ns;
        i64 t1_ns;
    };

    /** A scope that records one span on destruction; null-safe. */
    class Scope
    {
      public:
        Scope(SpanLog *log, const char *layer, std::string name)
            : log_(log), layer_(layer), name_(std::move(name)),
              t0_(log ? log->nowNs() : 0)
        {
        }
        ~Scope()
        {
            if (log_)
                log_->add(layer_, std::move(name_), t0_, log_->nowNs());
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        const char *layer_;
        std::string name_;
        i64 t0_;
    };

    SpanLog() : origin_(std::chrono::steady_clock::now()) {}

    /** Host nanoseconds since the log was created. */
    i64 nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    void setVariant(std::string v) { variant_ = std::move(v); }
    void add(const char *layer, std::string name, i64 t0, i64 t1)
    {
        spans_.push_back(Span{layer, std::move(name), variant_, t0, t1});
    }

    /** Write the spans as Chrome trace_event JSON; @p metadata is a
     *  JSON object stored beside them. */
    mirage::Status write(const std::string &path,
                         const std::string &metadata) const;

  private:
    std::string toChromeJson(const std::string &metadata) const;

    std::chrono::steady_clock::time_point origin_;
    std::string variant_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
