#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/**
 * The layers the traced run wraps in spans, one per public entry point
 * of a library layer. Names follow "<module>.<entry point>".
 */
enum class Layer : std::int16_t
{
    kIrParse,
    kIrPrint,
    kServiceModelLookup,
    kServiceOptionsCodec,
    kServiceCacheKey,
    kServiceCacheLookup,
    kServiceCacheInsert,
    kGraphBuild,
    kGraphScc,
    kMiiMinDist,
    kSchedSchedule,
    kSchedListSchedule,
    kSchedVerify,
    kCodegenGenerate,
    kCodegenLifetimes,
    kCodegenRegalloc,
    kCodegenKernelOnly,
    kSimSpec,
    kSimSequential,
    kSimPipelined,
    kSimGeneratedCode,
    kSimKernelOnly,
    kProgramCompile,
    kProgramExecSequential,
    kProgramExecCompiled,
};

inline constexpr int kLayerCount =
    static_cast<int>(Layer::kProgramExecCompiled) + 1;

const char* layerName(Layer layer);

/** One span: a layer call (or a whole request, layer -1) in one request. */
struct SpanRecord
{
    std::uint32_t request = 0;
    /** Index of the enclosing span in Tracer::spans(), -1 for a root. */
    std::int32_t parent = -1;
    /** Layer, or -1 for the request's root span. */
    std::int16_t layer = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t allocStart = 0;
    std::uint64_t allocEnd = 0;
};

/** Per-layer totals folded from the recorded spans. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    /** Span time not covered by child spans. */
    double selfSeconds = 0.0;
    /** Allocations inside the span not made inside a child span. */
    std::uint64_t selfAllocations = 0;
};

struct TraceSummary
{
    std::array<LayerTotals, kLayerCount> layers{};
    /** Summed duration of the root (request) spans. */
    double tracedSeconds = 0.0;
    /** Summed self time of every layer span. */
    double layerSelfSeconds = 0.0;
    std::uint64_t requests = 0;
};

/**
 * In-memory span recorder. Spans nest through an implicit stack: a span
 * opened while another is open becomes its child. Records are appended
 * to one vector and only read (summarized or written out) after the run.
 */
class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** Run `fn` inside a span of `layer`, returning what it returns. */
    template <typename Fn>
    decltype(auto)
    span(Layer layer, Fn&& fn)
    {
        const Scope scope(*this, static_cast<std::int16_t>(layer));
        return fn();
    }

    /** Run `fn` as the root span of the next request id. */
    template <typename Fn>
    decltype(auto)
    request(Fn&& fn)
    {
        // Grow the record vector between requests only: a reallocation
        // inside a span would count as that layer's allocation.
        if (spans_.capacity() - spans_.size() < kRequestHeadroom)
            spans_.reserve(2 * spans_.capacity() + kRequestHeadroom);
        ++request_;
        const Scope scope(*this, -1);
        return fn();
    }

    const std::vector<SpanRecord>& spans() const { return spans_; }

    TraceSummary summarize() const;

    /** Tab-separated span dump, one span per line, with a header. */
    void write(std::ostream& out) const;

  private:
    class Scope
    {
      public:
        Scope(Tracer& tracer, std::int16_t layer);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& tracer_;
        std::size_t index_;
    };

    /** More spans than any one request records. */
    static constexpr std::size_t kRequestHeadroom = 4096;

    std::vector<SpanRecord> spans_;
    std::int32_t open_ = -1;
    std::uint32_t request_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
