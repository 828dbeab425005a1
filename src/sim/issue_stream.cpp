#include "sim/issue_stream.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "sim/pipeline_simulator.hpp"
#include "sim/section_executor.hpp"
#include "support/error.hpp"

namespace ims::sim {

namespace {

/** `loop` decoded, no rows yet, room for `slots` slots in `rows` rows. */
IssueStream
emptyStream(const ir::Loop& loop, int slots, int rows)
{
    using Kind = DecodedOp::Kind;
    IssueStream stream;
    stream.ops.reserve(loop.size());
    stream.slots.reserve(slots);
    stream.rowStart.reserve(rows + 1);
    stream.rowStart.push_back(0);
    for (const ir::Operation& op : loop.operations()) {
        DecodedOp& d = stream.ops.emplace_back();
        d.kind = op.opcode == ir::Opcode::kExitIf ? Kind::kExit
                 : op.isStore()                   ? Kind::kStore
                 : op.isLoad()                    ? Kind::kLoad
                 : op.hasDest()                   ? Kind::kCompute
                                                  : Kind::kSkip;
        d.opcode = op.opcode;
        assert(op.sources.size() <= static_cast<std::size_t>(ir::kMaxSources));
        d.sourceCount = static_cast<int>(op.sources.size());
        d.dest = op.dest;
        d.memRef = op.memRef.value_or(ir::MemRef{});
        d.guard = op.guard.value_or(ir::Operand::makeImm(1.0));
        std::copy(op.sources.begin(), op.sources.end(), d.sources);
    }
    return stream;
}

/**
 * Append one row: the slots of [first, last) that are not stores, then
 * the stores, each group in the artifact's order. Operations that do
 * nothing (the loop-closing branch) are dropped.
 */
template <typename It, typename ToSlot>
void
appendRow(IssueStream& stream, It first, It last, ToSlot to_slot)
{
    auto first_store = static_cast<std::ptrdiff_t>(stream.slots.size());
    for (It it = first; it != last; ++it) {
        const IssueSlot slot = to_slot(*it);
        support::check(slot.op >= 0 &&
                           slot.op < static_cast<int>(stream.ops.size()),
                       "code does not match the loop");
        const DecodedOp::Kind kind = stream.ops[slot.op].kind;
        if (kind == DecodedOp::Kind::kStore)
            stream.slots.push_back(slot);
        else if (kind != DecodedOp::Kind::kSkip)
            stream.slots.insert(stream.slots.begin() + first_store++, slot);
    }
    stream.rowStart.push_back(static_cast<int>(stream.slots.size()));
}

void
rejectExits(const ir::Loop& loop, const char* message)
{
    for (const auto& op : loop.operations())
        support::check(op.opcode != ir::Opcode::kExitIf, message);
}

} // namespace

IssueStream
lowerSchedule(const ir::Loop& loop, const sched::ScheduleResult& schedule)
{
    const int ii = schedule.ii;
    support::check(ii >= 1 &&
                       static_cast<int>(schedule.times.size()) == loop.size(),
                   "schedule does not match the loop");
    struct Placed
    {
        int row;
        IssueSlot slot;
    };
    std::vector<Placed> placed;
    placed.reserve(loop.size());
    int max_stage = 0;
    for (ir::OpId op = 0; op < loop.size(); ++op) {
        const int time = schedule.times[op];
        support::check(time >= 0, "schedule does not match the loop");
        placed.push_back({time % ii, {op, -(time / ii)}});
        max_stage = std::max(max_stage, time / ii);
    }
    // Row, then stage descending (the older iteration first), then op.
    const auto key = [](const Placed& p) {
        return std::tuple(p.row, p.slot.iterationOffset, p.slot.op);
    };
    std::sort(placed.begin(), placed.end(),
              [&](const auto& a, const auto& b) { return key(a) < key(b); });

    IssueStream stream = emptyStream(loop, loop.size(), ii);
    auto first = placed.begin();
    for (int row = 0; row < ii; ++row) {
        const auto last = std::find_if(first, placed.end(), [&](auto& p) {
            return p.row != row;
        });
        appendRow(stream, first, last, [](const Placed& p) { return p.slot; });
        first = last;
    }
    stream.segments = {{0, ii, 0, false, max_stage, true}};
    return stream;
}

IssueStream
lowerGeneratedCode(const ir::Loop& loop, const codegen::GeneratedCode& code)
{
    rejectExits(loop, "the prologue/kernel/epilogue schema supports "
                      "DO-loops only; early-exit loops need the "
                      "kernel-only (ESC) schema");
    const int stages = code.kernel.stageCount;
    IssueStream stream = emptyStream(
        loop, static_cast<int>(code.totalInstances(stages)),
        code.prologue.numCycles() + code.kernelSection.numCycles() +
            code.epilogue.numCycles());
    stream.segments.reserve(3);
    const std::pair<const codegen::CodeSection*, Segment> sections[] = {
        {&code.prologue, {0, 0, 0, false, 1, false}},
        {&code.kernelSection, {0, 0, stages - 1, false, 1 - stages, true}},
        {&code.epilogue, {0, 0, 0, true, 1, false}},
    };
    for (auto [section, segment] : sections) {
        segment.firstRow = stream.numRows();
        for (const auto& cycle : section->cycles) {
            appendRow(stream, cycle.begin(), cycle.end(), [](auto& instance) {
                return IssueSlot{instance.op, instance.iterationOffset};
            });
        }
        segment.endRow = stream.numRows();
        stream.segments.push_back(segment);
    }
    return stream;
}

IssueStream
lowerKernelOnly(const ir::Loop& loop, const codegen::KernelOnlyCode& code)
{
    rejectExits(loop, "early-exit kernel-only execution (ESC counting) "
                      "is not implemented");
    IssueStream stream = emptyStream(loop, loop.size(),
                                     static_cast<int>(code.cycles.size()));
    for (const auto& cycle : code.cycles) {
        appendRow(stream, cycle.begin(), cycle.end(), [](auto& placement) {
            return IssueSlot{placement.op, -placement.stage};
        });
    }
    stream.segments = {
        {0, stream.numRows(), 0, false, code.stageCount - 1, true}};
    return stream;
}

StreamEngine::StreamEngine(const ir::Loop& loop, const IssueStream& stream,
                           const InitialState& initial)
    : stream_(stream), trip_(initial.tripCount),
      registers_(loop, initial), memory_(initial.memory)
{
}

SimResult
StreamEngine::run()
{
    for (const Segment& segment : stream_.segments) {
        const int base = segment.base + (segment.basePlusTrip ? trip_ : 0);
        const int repetitions =
            segment.repetitions + (segment.repetitionsPlusTrip ? trip_ : 0);
        for (int rep = 0; rep < repetitions; ++rep) {
            for (int row = segment.firstRow; row < segment.endRow; ++row)
                runRow(row, base + rep);
        }
    }
    return finish();
}

void
StreamEngine::runRow(int row, int base)
{
    assert(row >= 0 && row < stream_.numRows());
    const IssueSlot* const slots = stream_.slots.data();
    const DecodedOp* const ops = stream_.ops.data();
    const int end = stream_.rowStart[row + 1];
    for (int s = stream_.rowStart[row]; s < end; ++s) {
        const int iter = base + slots[s].iterationOffset;
        if (iter >= 0 && iter < trip_)
            execute(ops[slots[s].op], slots[s].op, iter);
    }
}

void
StreamEngine::execute(const DecodedOp& op, ir::OpId id, int iter)
{
    const auto read = [&](const ir::Operand& operand) {
        return registers_.readOperand(operand, iter);
    };
    const bool active = isTrue(read(op.guard));
    // Program order puts (iter, id) after the exit that fired.
    const bool squashed =
        exitIter_ >= 0 &&
        (iter > exitIter_ || (iter == exitIter_ && id > exitOp_));
    const int cell = op.memRef.stride * iter + op.memRef.offset;
    switch (op.kind) {
    case DecodedOp::Kind::kSkip:
        return;
    case DecodedOp::Kind::kExit:
        // A fired exit squashes every later instance, so one that still
        // fires here is the earliest in program order so far.
        if (active && !squashed && read(op.sources[0]) > 0.0) {
            exitIter_ = iter;
            exitOp_ = id;
        }
        return;
    case DecodedOp::Kind::kStore:
        if (active && !squashed) {
            memory_.write(op.memRef.array, cell, read(op.sources[1]));
        }
        return;
    case DecodedOp::Kind::kLoad:
        registers_.write(op.dest, iter,
                         active ? memory_.read(op.memRef.array, cell) : 0.0);
        return;
    case DecodedOp::Kind::kCompute: {
        Value result = 0.0;
        if (active) {
            Value sources[ir::kMaxSources];
            for (int k = 0; k < op.sourceCount; ++k)
                sources[k] = read(op.sources[k]);
            result = evaluate(op.opcode, sources, op.sourceCount);
        }
        registers_.write(op.dest, iter, result);
        return;
    }
    }
}

SimResult
StreamEngine::finish()
{
    const int executed = exitIter_ >= 0 ? exitIter_ + 1 : trip_;
    return SimResult{std::move(memory_), registers_.finalRegisters(),
                     executed, &registers_.loop()};
}

// The public entry points of pipeline_simulator.hpp and
// section_executor.hpp: validate, lower, bind, run.

PipelineResult
runPipelined(const ir::Loop& loop, const sched::ScheduleResult& schedule,
             const SimSpec& spec)
{
    loop.validate();
    const IssueStream stream = lowerSchedule(loop, schedule);
    const InitialState initial = bindSpec(loop, spec);
    PipelineResult result{StreamEngine(loop, stream, initial).run(), 0};
    const int executed = result.state.executedIterations;
    if (executed > 0) {
        result.cycles = static_cast<long long>(executed - 1) * schedule.ii +
                        schedule.scheduleLength;
    }
    return result;
}

SimResult
runGeneratedCode(const ir::Loop& loop, const codegen::GeneratedCode& code,
                 const SimSpec& spec)
{
    loop.validate();
    const IssueStream stream = lowerGeneratedCode(loop, code);
    support::check(spec.tripCount >= code.kernel.stageCount,
                   "trip count below the stage count: the pipelined loop "
                   "would be bypassed (preconditioning)");
    const InitialState initial = bindSpec(loop, spec);
    return StreamEngine(loop, stream, initial).run();
}

SimResult
runKernelOnly(const ir::Loop& loop, const codegen::KernelOnlyCode& code,
              const SimSpec& spec)
{
    loop.validate();
    const IssueStream stream = lowerKernelOnly(loop, code);
    const InitialState initial = bindSpec(loop, spec);
    return StreamEngine(loop, stream, initial).run();
}

} // namespace ims::sim
