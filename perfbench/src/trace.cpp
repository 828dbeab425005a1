#include "trace.hpp"

#include <chrono>

#include "alloc_count.hpp"

namespace perfbench {

namespace {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

constexpr const char* kLayerNames[kLayerCount] = {
    "ir.parse",
    "ir.print",
    "service.model_lookup",
    "service.options_codec",
    "service.cache_key",
    "service.cache_lookup",
    "service.cache_insert",
    "graph.build",
    "graph.scc",
    "mii.min_dist",
    "sched.schedule",
    "sched.list_schedule",
    "sched.verify",
    "codegen.generate",
    "codegen.lifetimes",
    "codegen.regalloc",
    "codegen.kernel_only",
    "sim.spec",
    "sim.sequential",
    "sim.pipelined",
    "sim.generated_code",
    "sim.kernel_only",
    "program.compile",
    "program.exec_sequential",
    "program.exec_compiled",
};

} // namespace

const char*
layerName(Layer layer)
{
    return kLayerNames[static_cast<int>(layer)];
}

Tracer::Scope::Scope(Tracer& tracer, std::int16_t layer)
    : tracer_(tracer), index_(tracer.spans_.size())
{
    SpanRecord record;
    record.request = tracer_.request_;
    record.parent = tracer_.open_;
    record.layer = layer;
    tracer_.spans_.push_back(record);
    tracer_.open_ = static_cast<std::int32_t>(index_);
    // Read the clocks last, so the record's own append is not inside it.
    SpanRecord& opened = tracer_.spans_.back();
    opened.allocStart = allocationCount();
    opened.startNs = nowNs();
}

Tracer::Scope::~Scope()
{
    const std::int64_t end = nowNs();
    SpanRecord& record = tracer_.spans_[index_];
    record.endNs = end;
    record.allocEnd = allocationCount();
    tracer_.open_ = record.parent;
}

TraceSummary
Tracer::summarize() const
{
    // Self = own extent minus the extents of direct children.
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    std::vector<std::uint64_t> child_allocs(spans_.size(), 0);
    for (const SpanRecord& span : spans_) {
        if (span.parent < 0)
            continue;
        child_ns[span.parent] += span.endNs - span.startNs;
        child_allocs[span.parent] += span.allocEnd - span.allocStart;
    }
    TraceSummary summary;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& span = spans_[i];
        if (span.layer < 0) {
            summary.tracedSeconds +=
                static_cast<double>(span.endNs - span.startNs) * 1e-9;
            ++summary.requests;
            continue;
        }
        const double self =
            static_cast<double>(span.endNs - span.startNs - child_ns[i]) *
            1e-9;
        LayerTotals& totals = summary.layers[span.layer];
        ++totals.calls;
        totals.selfSeconds += self;
        totals.selfAllocations +=
            span.allocEnd - span.allocStart - child_allocs[i];
        summary.layerSelfSeconds += self;
    }
    return summary;
}

void
Tracer::write(std::ostream& out) const
{
    out << "span\trequest\tparent\tname\tstart_ns\tend_ns\tallocs\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& span = spans_[i];
        out << i << '\t' << span.request << '\t' << span.parent << '\t'
            << (span.layer < 0 ? "request"
                               : layerName(static_cast<Layer>(span.layer)))
            << '\t' << span.startNs << '\t' << span.endNs << '\t'
            << (span.allocEnd - span.allocStart) << '\n';
    }
}

} // namespace perfbench
