#ifndef IMS_SIM_ISSUE_STREAM_HPP
#define IMS_SIM_ISSUE_STREAM_HPP

#include <cstdint>
#include <vector>

#include "codegen/code_generator.hpp"
#include "codegen/kernel_only.hpp"
#include "sched/iterative_scheduler.hpp"
#include "sim/register_file.hpp"

namespace ims::sim {

/**
 * A loop operation decoded once per lowering: no optional or vector
 * left to unpack per instance. kSkip marks the loop-closing branch; an
 * unguarded operation gets the always-true guard #1.
 */
struct DecodedOp
{
    enum class Kind : std::uint8_t { kSkip, kCompute, kLoad, kStore, kExit };

    Kind kind = Kind::kSkip;
    ir::Opcode opcode = ir::Opcode::kCopy;
    int sourceCount = 0;
    ir::RegId dest = ir::kNoReg;
    ir::MemRef memRef;
    ir::Operand guard;
    ir::Operand sources[ir::kMaxSources];
};

/** Operation `op` for iteration base + iterationOffset. */
struct IssueSlot
{
    ir::OpId op = -1;
    int iterationOffset = 0;
};

/**
 * Rows [firstRow, endRow) run `repetitions` times, with iteration bases
 * base, base + 1, ...; a `...PlusTrip` flag adds the trip count.
 */
struct Segment
{
    int firstRow = 0;
    int endRow = 0;
    int base = 0;
    bool basePlusTrip = false;
    int repetitions = 0;
    bool repetitionsPlusTrip = false;
};

/**
 * A pipelined form lowered for the engine: decoded operations (by op id)
 * and issue slots in rows (VLIW cycles). Each row lists its loads and
 * ALU operations before its stores, which become visible only after
 * their issue cycle. Instances whose iteration falls outside [0, trip)
 * are off, like a stage predicate.
 */
struct IssueStream
{
    std::vector<DecodedOp> ops;
    std::vector<IssueSlot> slots;
    /** Row r holds slots [rowStart[r], rowStart[r + 1]). */
    std::vector<int> rowStart;
    std::vector<Segment> segments;

    int numRows() const { return static_cast<int>(rowStart.size()) - 1; }
};

/*
 * The lowerings, each reading only its own artifact; runPipelined,
 * runGeneratedCode and runKernelOnly document the iteration each
 * instance runs for. Within a flat-schedule row, older iterations (higher
 * stages) come first, then lower op ids; the other forms keep their
 * artifact's order. Only the flat schedule may exit early.
 */
IssueStream lowerSchedule(const ir::Loop& loop,
                          const sched::ScheduleResult& schedule);
IssueStream lowerGeneratedCode(const ir::Loop& loop,
                               const codegen::GeneratedCode& code);
IssueStream lowerKernelOnly(const ir::Loop& loop,
                            const codegen::KernelOnlyCode& code);

/**
 * Runs issue streams against one register file and memory, keeping the
 * sequential reference's checks (a read before its definition executed,
 * an access outside the simulated memory). Once an exit fires, later
 * instances in program order store nothing and raise no exit. The loop,
 * stream and initial state must outlive the engine, and the loop also
 * its results (SimResult::loop).
 */
class StreamEngine
{
  public:
    StreamEngine(const ir::Loop& loop, const IssueStream& stream,
                 const InitialState& initial);

    /** Every segment in order, then finish(). */
    SimResult run();

    /** Row `row` once, with iteration base `base`. */
    void runRow(int row, int base);

    /** The final state; moves the memory out. */
    SimResult finish();

  private:
    void execute(const DecodedOp& op, ir::OpId id, int iter);

    const IssueStream& stream_;
    int trip_;
    RegisterFile registers_;
    Memory memory_;
    int exitIter_ = -1;
    ir::OpId exitOp_ = -1;
};

} // namespace ims::sim

#endif // IMS_SIM_ISSUE_STREAM_HPP
