#include "program/program_executor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <set>

#include "sim/issue_stream.hpp"
#include "sim/pipeline_simulator.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace ims::program {

namespace {

using ArrayStore = std::map<std::string, std::map<int, sim::Value>>;
using Variables = std::map<std::string, sim::Value>;

bool
isControlVar(const std::string& name)
{
    return !name.empty() && name[0] == kControlVarPrefix;
}

/** `who()` names the reader in the error message; called only on failure. */
template <typename Who>
sim::Value
readVariable(const Variables& variables, const std::string& name,
             const Who& who)
{
    const auto it = variables.find(name);
    support::check(it != variables.end(), [&] {
        return who() + " reads undefined program variable '" + name +
               "'";
    });
    return it->second;
}

sim::Value
readCell(const ArrayStore& store, const std::string& array, int index)
{
    const auto it = store.find(array);
    if (it == store.end())
        return 0.0;
    const auto cell = it->second.find(index);
    return cell == it->second.end() ? 0.0 : cell->second;
}

/** Loop-local simulation margin, identical to workloads::makeSimSpec. */
int
loopMargin(const ir::Loop& loop)
{
    int max_offset = 0;
    for (const auto& op : loop.operations()) {
        if (op.memRef)
            max_offset = std::max(max_offset, std::abs(op.memRef->offset));
    }
    return std::max(8, max_offset + loop.maxDistance() + 2);
}

int
loopStride(const ir::Loop& loop)
{
    int stride = 1;
    for (const auto& op : loop.operations()) {
        if (op.memRef)
            stride = std::max(stride, op.memRef->stride);
    }
    return stride;
}

/**
 * Marshal program state into a loop SimSpec: live-in and seed bindings
 * from the variables, shared arrays clipped to the loop's simulated
 * range. Both engines build their loop spec through here, so the loop
 * sees identical state either way.
 */
sim::SimSpec
makeLoopSpec(const LoopSection& loop, int trip, const Variables& variables,
             const ArrayStore& store)
{
    sim::SimSpec spec;
    spec.tripCount = trip;
    spec.margin = loopMargin(loop.body);

    for (const auto& reg : loop.body.registers()) {
        if (!reg.isLiveIn)
            continue;
        spec.liveIn[reg.name] =
            readVariable(variables, loop.liveInVar(reg.name), [&] {
                return "loop '" + loop.body.name() + "' live-in '" +
                       reg.name + "'";
            });
    }
    for (const auto& [reg, vars] : loop.seedBindings) {
        std::vector<sim::Value> seeds;
        seeds.reserve(vars.size());
        for (const auto& var : vars) {
            seeds.push_back(readVariable(variables, var, [&] {
                return "loop '" + loop.body.name() + "' seed for '" + reg +
                       "'";
            }));
        }
        spec.seeds[reg] = std::move(seeds);
    }

    const int cells = loopStride(loop.body) * trip + 2 * spec.margin;
    for (const auto& array : loop.body.arrays()) {
        std::vector<sim::Value> contents;
        contents.reserve(cells);
        for (int k = 0; k < cells; ++k)
            contents.push_back(
                readCell(store, array.name, k - spec.margin));
        spec.arrays[array.name] = {-spec.margin, std::move(contents)};
    }
    return spec;
}

/**
 * Marshal a finished loop run out: the written arrays back into the
 * store, the output bindings and the iteration count into the variables.
 */
void
marshalOut(const LoopSection& loop, const sim::SimResult& result, int trip,
           Variables& variables, ArrayStore& store)
{
    const int margin = loopMargin(loop.body);
    const int cells = loopStride(loop.body) * trip + 2 * margin;
    std::set<ir::ArrayId> written;
    for (const auto& op : loop.body.operations()) {
        if (op.isStore() && op.memRef)
            written.insert(op.memRef->array);
    }
    for (const ir::ArrayId id : written) {
        auto& cellsOut = store[loop.body.arrays()[id].name];
        for (int k = -margin; k < cells - margin; ++k)
            cellsOut[k] = result.memory.read(id, k);
    }
    if (trip >= 1 && !loop.hasEarlyExit()) {
        for (const auto& [var, reg] : loop.outputs) {
            const std::optional<sim::Value> value =
                result.finalRegister(reg);
            support::check(value.has_value(), [&] {
                return "loop '" + loop.body.name() + "' output '" +
                       var + "': register '" + reg +
                       "' has no final value";
            });
            variables[var] = *value;
        }
    }
    if (!loop.itersVar.empty()) {
        variables[loop.itersVar] =
            static_cast<sim::Value>(result.executedIterations);
    }
}

// ---------------------------------------------------------------------
// Sequential reference.
// ---------------------------------------------------------------------

void
runStatement(const Block& block, const Statement& statement,
             Variables& variables, ArrayStore& store)
{
    const auto who = [&] {
        return "block '" + block.name + "' statement '" +
               ir::opcodeName(statement.opcode) + "'";
    };
    if (statement.opcode == ir::Opcode::kLoad) {
        variables[statement.dest] =
            readCell(store, statement.array, statement.index);
        return;
    }
    assert(statement.sources.size() <=
           static_cast<std::size_t>(ir::kMaxSources));
    sim::Value sources[ir::kMaxSources];
    int count = 0;
    for (const auto& source : statement.sources) {
        sources[count++] = source.isVariable()
                               ? readVariable(variables, source.var, who)
                               : source.immediate;
    }
    if (statement.opcode == ir::Opcode::kStore) {
        store[statement.array][statement.index] = sources[0];
        return;
    }
    variables[statement.dest] =
        sim::evaluate(statement.opcode, sources, count);
}

// ---------------------------------------------------------------------
// Compiled execution.
// ---------------------------------------------------------------------

/**
 * Execution state of one scheduled block: register values plus the
 * live-in snapshot taken at block entry (SSA semantics — a later
 * same-variable writeback must not change what this block's live-in
 * reads see).
 */
struct BlockRun
{
    const CompiledBlock* block = nullptr;
    std::vector<sim::Value> regs;
    std::vector<char> written;
    std::vector<char> deferred;

    BlockRun() = default;

    /**
     * Live-ins named in `deferred_vars` are not read yet: they are the
     * variables the loop marshals out (outputs, iteration count), which
     * do not exist when an overlapped post-block starts issuing. The
     * compression eligibility check guarantees no overlap cycle reads
     * them; refreshLiveIns() fills them in after the marshal.
     */
    BlockRun(const CompiledBlock& compiled, const Variables& variables,
             const std::set<std::string>& deferred_vars = {})
        : block(&compiled)
    {
        regs.assign(compiled.body.numRegisters(), 0.0);
        written.assign(compiled.body.numRegisters(), 0);
        deferred.assign(compiled.body.numRegisters(), 0);
        for (ir::RegId id = 0; id < compiled.body.numRegisters(); ++id) {
            if (!compiled.body.reg(id).isLiveIn)
                continue;
            if (deferred_vars.count(compiled.body.reg(id).name)) {
                deferred[id] = 1;
                continue;
            }
            regs[id] =
                readVariable(variables, compiled.body.reg(id).name,
                             [&] { return "block '" + compiled.name + "'"; });
            written[id] = 1;
        }
    }

    /** Re-read the deferred live-ins once the loop has marshaled out. */
    void
    refreshLiveIns(const Variables& variables)
    {
        for (ir::RegId id = 0; id < block->body.numRegisters(); ++id) {
            if (!deferred[id])
                continue;
            regs[id] =
                readVariable(variables, block->body.reg(id).name,
                             [&] { return "block '" + block->name + "'"; });
            written[id] = 1;
            deferred[id] = 0;
        }
    }

    sim::Value
    operand(const ir::Operand& op) const
    {
        if (!op.isRegister())
            return op.immediate;
        support::check(!deferred[op.reg], [&] {
            return "block '" + block->name + "' reads variable '" +
                   block->body.reg(op.reg).name +
                   "' before the loop marshaled it out "
                   "(compression eligibility bug)";
        });
        support::check(written[op.reg], [&] {
            return "block '" + block->name + "' reads register '" +
                   block->body.reg(op.reg).name +
                   "' before its definition executed (schedule "
                   "bug)";
        });
        return regs[op.reg];
    }

    /** Execute one scheduled cycle against the program state. */
    void
    runCycle(int cycle, Variables& variables, ArrayStore& store)
    {
        const auto& ops = block->cycles[cycle];
        for (const bool store_phase : {false, true}) {
            for (const ir::OpId id : ops) {
                const auto& op = block->body.operation(id);
                if (op.isStore() != store_phase)
                    continue;
                const std::string& array =
                    op.memRef
                        ? block->body.arrays()[op.memRef->array].name
                        : std::string();
                if (op.isStore()) {
                    store[array][op.memRef->offset] =
                        operand(op.sources[1]);
                    continue;
                }
                sim::Value result;
                if (op.isLoad()) {
                    result = readCell(store, array, op.memRef->offset);
                } else {
                    assert(op.sources.size() <=
                           static_cast<std::size_t>(ir::kMaxSources));
                    sim::Value sources[ir::kMaxSources];
                    int count = 0;
                    for (const auto& source : op.sources)
                        sources[count++] = operand(source);
                    result = sim::evaluate(op.opcode, sources, count);
                }
                regs[op.dest] = result;
                written[op.dest] = 1;
                // Final versions write through to the program variable
                // immediately (the marshal into the loop may happen while
                // this block's overlap cycles are still issuing).
                const std::string& wb = block->writeback[op.dest];
                if (!wb.empty())
                    variables[wb] = result;
            }
        }
    }

    void
    runCycles(int from, int to, Variables& variables, ArrayStore& store)
    {
        for (int cycle = from; cycle < to; ++cycle)
            runCycle(cycle, variables, store);
    }
};

long long
roundedCount(sim::Value value, const char* what)
{
    const long long count = std::llround(value);
    support::check(std::isfinite(value) && count >= 0, [&] {
        return std::string(what) + " must be a non-negative count, got " +
               std::to_string(value);
    });
    return count;
}

ProgramState
finishState(Variables variables, ArrayStore store, int loop_iterations)
{
    ProgramState state;
    for (auto& [name, value] : variables) {
        if (!isControlVar(name))
            state.variables.emplace(name, value);
    }
    state.arrays = std::move(store);
    state.loopIterations = loop_iterations;
    return state;
}

ArrayStore
initialStore(const ProgramSpec& spec)
{
    ArrayStore store;
    for (const auto& [name, init] : spec.arrays) {
        auto& cells = store[name];
        for (std::size_t k = 0; k < init.second.size(); ++k)
            cells[init.first + static_cast<int>(k)] = init.second[k];
    }
    return store;
}

} // namespace

ProgramState
runProgramSequential(const Program& program, const ProgramSpec& spec)
{
    program.validate();
    support::check(spec.trip >= 0, "trip count must be non-negative");

    Variables variables = spec.variables;
    variables[program.loop.tripVar] = static_cast<sim::Value>(spec.trip);
    ArrayStore store = initialStore(spec);

    for (const auto& block : program.preBlocks) {
        for (const auto& statement : block.statements)
            runStatement(block, statement, variables, store);
    }

    const sim::SimSpec loop_spec =
        makeLoopSpec(program.loop, spec.trip, variables, store);
    const sim::SimResult result =
        sim::runSequential(program.loop.body, loop_spec);
    marshalOut(program.loop, result, spec.trip, variables, store);

    for (const auto& block : program.postBlocks) {
        for (const auto& statement : block.statements)
            runStatement(block, statement, variables, store);
    }
    return finishState(std::move(variables), std::move(store),
                       result.executedIterations);
}

ProgramState
runProgramCompiled(const CompiledProgram& compiled,
                   const ProgramSpec& spec)
{
    const Program& source = compiled.source;
    support::check(spec.trip >= 0, "trip count must be non-negative");
    const int trip = spec.trip;

    Variables variables = spec.variables;
    variables[source.loop.tripVar] = static_cast<sim::Value>(trip);
    ArrayStore store = initialStore(spec);

    // Pre-loop blocks; the final one holds back its overlap cycles.
    const int overlap = compiled.prologueOverlap;
    BlockRun lastPre;
    for (std::size_t i = 0; i < compiled.pre.size(); ++i) {
        BlockRun run(compiled.pre[i], variables);
        const bool isLast = i + 1 == compiled.pre.size();
        const int held = isLast ? overlap : 0;
        run.runCycles(0, compiled.pre[i].cycleCount - held, variables,
                      store);
        if (isLast)
            lastPre = std::move(run);
    }

    if (compiled.loop.isWhile) {
        // WHILE-loops run the flat schedule; compression is off.
        const sim::SimSpec loop_spec =
            makeLoopSpec(source.loop, trip, variables, store);
        const sim::PipelineResult result = sim::runPipelined(
            source.loop.body, compiled.loop.schedule, loop_spec);
        marshalOut(source.loop, result.state, trip, variables, store);
        for (const auto& block : compiled.post)
            BlockRun(block, variables)
                .runCycles(0, block.cycleCount, variables, store);
        return finishState(std::move(variables), std::move(store),
                           result.state.executedIterations);
    }

    // EC/LC-controlled kernel-only execution of the counted loop.
    const ir::Loop& body = source.loop.body;
    const auto& kernel = compiled.loop.body;
    const int ii = kernel.ii;

    const sim::InitialState initial = sim::bindSpec(
        body, makeLoopSpec(source.loop, trip, variables, store));
    const sim::IssueStream stream = sim::lowerKernelOnly(body, kernel);
    // engine.runRow(row, rep) runs one kernel row under the stage
    // predicates: a stage-s placement runs iteration rep - s when that
    // iteration is live (0 <= rep - s < trip).
    sim::StreamEngine engine(body, stream, initial);

    // Ramp-up: SC-1 repetitions, interleaved with the held-back overlap
    // cycles of the final pre-loop block.
    const int ramp = (kernel.stageCount - 1) * ii;
    const int preBase =
        lastPre.block ? lastPre.block->cycleCount - overlap : 0;
    for (int cycle = 0; cycle < ramp; ++cycle) {
        if (cycle < overlap)
            lastPre.runCycle(preBase + cycle, variables, store);
        engine.runRow(cycle % ii, cycle / ii);
    }
    if (lastPre.block && overlap > ramp)
        lastPre.runCycles(preBase + ramp, lastPre.block->cycleCount,
                          variables, store);

    // The EC/LC registers were computed by the lowered statements above;
    // their values now control the remaining phases.
    const auto loop_control = [] { return std::string("loop control"); };
    const long long lc = roundedCount(
        readVariable(variables, compiled.control.lc, loop_control), "$lc");
    const long long ec = roundedCount(
        readVariable(variables, compiled.control.ec, loop_control), "$ec");
    support::check(lc + ec == trip, [&] {
        return "EC/LC lowering is inconsistent: lc + ec = " +
               std::to_string(lc + ec) + " but trip = " +
               std::to_string(trip);
    });

    // Steady state ($lc unpredicated repetitions), then ramp-down ($ec
    // repetitions) whose last cycles interleave with the first post-loop
    // block's overlap cycles. The compiler chose the overlap in whole
    // kernel repetitions, so clamping to the runtime drain length
    // preserves the kernel-row alignment.
    const int end = ramp + static_cast<int>(lc + ec) * ii;
    const int postOverlap =
        std::min(compiled.epilogueOverlap, static_cast<int>(ec) * ii);
    std::set<std::string> marshaled;
    for (const auto& [var, reg] : source.loop.outputs)
        marshaled.insert(var);
    if (!source.loop.itersVar.empty())
        marshaled.insert(source.loop.itersVar);
    BlockRun firstPost;
    if (!compiled.post.empty())
        firstPost = BlockRun(compiled.post.front(), variables, marshaled);
    for (int cycle = ramp; cycle < end; ++cycle) {
        engine.runRow(cycle % ii, cycle / ii);
        if (cycle >= end - postOverlap)
            firstPost.runCycle(cycle - (end - postOverlap), variables,
                               store);
    }

    marshalOut(source.loop, engine.finish(), trip, variables, store);

    // The post block's overlap cycles could not touch the marshaled
    // variables (compression eligibility), so refreshing their live-in
    // snapshot now is exact.
    if (firstPost.block) {
        firstPost.refreshLiveIns(variables);
        firstPost.runCycles(postOverlap, firstPost.block->cycleCount,
                            variables, store);
    }
    for (std::size_t i = 1; i < compiled.post.size(); ++i) {
        BlockRun(compiled.post[i], variables)
            .runCycles(0, compiled.post[i].cycleCount, variables, store);
    }
    return finishState(std::move(variables), std::move(store), trip);
}

ProgramSpec
makeProgramSpec(const Program& program, int trip, std::uint64_t seed)
{
    support::Rng rng(seed);
    ProgramSpec spec;
    spec.trip = trip;

    // Variables feeding predicate live-ins must hold predicate values.
    std::set<std::string> predicateVars;
    for (const auto& reg : program.loop.body.registers()) {
        if (reg.isLiveIn && reg.isPredicate)
            predicateVars.insert(program.loop.liveInVar(reg.name));
    }
    for (const auto& var : program.inputVariables()) {
        spec.variables[var] = predicateVars.count(var)
                                  ? 0.0
                                  : rng.uniformReal() * 4.0 - 2.0;
    }

    const int margin = loopMargin(program.loop.body);
    const int stride = loopStride(program.loop.body);
    const int cells =
        std::max(stride * trip + margin, program.maxBlockIndex() + 1) +
        margin;
    for (const auto& name : program.arrayNames()) {
        std::vector<sim::Value> contents;
        contents.reserve(cells);
        for (int k = 0; k < cells; ++k)
            contents.push_back(rng.uniformReal() * 4.0 - 2.0);
        spec.arrays[name] = {-margin, std::move(contents)};
    }
    return spec;
}

bool
equivalentState(const ProgramState& a, const ProgramState& b)
{
    return describeStateDifference(a, b).empty();
}

std::string
describeStateDifference(const ProgramState& a, const ProgramState& b)
{
    if (a.loopIterations != b.loopIterations) {
        return "loop iterations: " + std::to_string(a.loopIterations) +
               " vs " + std::to_string(b.loopIterations);
    }
    {
        std::set<std::string> names;
        for (const auto& [name, value] : a.variables)
            names.insert(name);
        for (const auto& [name, value] : b.variables)
            names.insert(name);
        for (const auto& name : names) {
            const auto ita = a.variables.find(name);
            const auto itb = b.variables.find(name);
            if (ita == a.variables.end() || itb == b.variables.end()) {
                return "variable '" + name + "' only defined on " +
                       (ita == a.variables.end() ? "the second side"
                                                 : "the first side");
            }
            if (!sim::sameValue(ita->second, itb->second)) {
                return "variable '" + name +
                       "': " + std::to_string(ita->second) + " vs " +
                       std::to_string(itb->second);
            }
        }
    }
    std::set<std::string> arrays;
    for (const auto& [name, cells] : a.arrays)
        arrays.insert(name);
    for (const auto& [name, cells] : b.arrays)
        arrays.insert(name);
    static const std::map<int, sim::Value> kEmpty;
    for (const auto& name : arrays) {
        const auto ita = a.arrays.find(name);
        const auto itb = b.arrays.find(name);
        const auto& cellsA = ita == a.arrays.end() ? kEmpty : ita->second;
        const auto& cellsB = itb == b.arrays.end() ? kEmpty : itb->second;
        std::set<int> indices;
        for (const auto& [index, value] : cellsA)
            indices.insert(index);
        for (const auto& [index, value] : cellsB)
            indices.insert(index);
        for (const int index : indices) {
            const auto ca = cellsA.find(index);
            const auto cb = cellsB.find(index);
            const sim::Value va = ca == cellsA.end() ? 0.0 : ca->second;
            const sim::Value vb = cb == cellsB.end() ? 0.0 : cb->second;
            if (!sim::sameValue(va, vb)) {
                return "array '" + name + "' index " +
                       std::to_string(index) + ": " + std::to_string(va) +
                       " vs " + std::to_string(vb);
            }
        }
    }
    return "";
}

std::vector<core::Diagnostic>
programEquivalenceDiagnostics(const Program& program,
                              const machine::MachineModel& machine,
                              const ProgramOptions& options,
                              const std::vector<int>& trips,
                              std::uint64_t seed)
{
    std::vector<core::Diagnostic> out;
    const ProgramCompiler compiler(machine, options);
    const ProgramCompileResult result = compiler.compile(program);
    if (!result.ok()) {
        for (const auto& diagnostic : result.diagnostics) {
            if (diagnostic.severity == core::Diagnostic::Severity::kError)
                out.push_back(diagnostic);
        }
        if (out.empty()) {
            out.push_back({core::Diagnostic::Severity::kError, "compile",
                           "program compilation failed without an error "
                           "diagnostic",
                           "program.error"});
        }
        return out;
    }

    for (const int trip : trips) {
        if (trip < 0)
            continue;
        const ProgramSpec spec = makeProgramSpec(program, trip, seed);

        ProgramState reference;
        try {
            reference = runProgramSequential(program, spec);
        } catch (const std::exception& error) {
            out.push_back({core::Diagnostic::Severity::kError, "verify",
                           "sequential program reference failed at trip " +
                               std::to_string(trip) + ": " + error.what(),
                           "program.error"});
            continue;
        }
        try {
            const ProgramState got =
                runProgramCompiled(*result.compiled, spec);
            const std::string diff =
                describeStateDifference(reference, got);
            if (!diff.empty()) {
                out.push_back(
                    {core::Diagnostic::Severity::kError, "verify",
                     "compiled program diverges from sequential at trip " +
                         std::to_string(trip) + ": " + diff,
                     "program.mismatch"});
            }
        } catch (const std::exception& error) {
            out.push_back({core::Diagnostic::Severity::kError, "verify",
                           "compiled program failed at trip " +
                               std::to_string(trip) + ": " + error.what(),
                           "program.error"});
        }
    }
    return out;
}

} // namespace ims::program
