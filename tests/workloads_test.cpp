#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "ir/printer.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "workloads/corpus.hpp"
#include "workloads/kernels.hpp"
#include "workloads/profile_model.hpp"
#include "workloads/random_loops.hpp"

namespace {

using namespace ims;

TEST(KernelLibraryTest, AllKernelsValidateAndHaveUniqueNames)
{
    const auto library = workloads::kernelLibrary();
    EXPECT_GE(library.size(), 27u);
    std::set<std::string> names;
    for (const auto& w : library) {
        EXPECT_NO_THROW(w.loop.validate()) << w.loop.name();
        EXPECT_TRUE(names.insert(w.loop.name()).second) << w.loop.name();
        EXPECT_EQ(w.suite, "lfk");
        EXPECT_GE(w.loop.size(), 4); // Table 3 minimum
    }
}

TEST(KernelLibraryTest, LookupByName)
{
    const auto w = workloads::kernelByName("daxpy");
    EXPECT_EQ(w.loop.name(), "daxpy");
    EXPECT_THROW(workloads::kernelByName("nope"), support::Error);
}

TEST(KernelLibraryTest, MakeSimSpecCoversAllArraysAndLiveIns)
{
    const auto w = workloads::kernelByName("hydro_frag");
    const auto spec = workloads::makeSimSpec(w.loop, 20, 9);
    EXPECT_EQ(spec.tripCount, 20);
    for (const auto& array : w.loop.arrays())
        EXPECT_TRUE(spec.arrays.count(array.name)) << array.name;
    for (const auto& reg : w.loop.registers()) {
        if (reg.isLiveIn) {
            EXPECT_TRUE(spec.liveIn.count(reg.name)) << reg.name;
        }
    }
    // Margin must cover the z[i+11] access.
    EXPECT_GE(spec.margin, 11);
}

TEST(KernelLibraryTest, MakeSimSpecDeterministic)
{
    const auto w = workloads::kernelByName("daxpy");
    const auto a = workloads::makeSimSpec(w.loop, 10, 4);
    const auto b = workloads::makeSimSpec(w.loop, 10, 4);
    EXPECT_EQ(a.arrays.at("X"), b.arrays.at("X"));
    EXPECT_EQ(a.liveIn, b.liveIn);
}

/** Bitwise equality of two value vectors. */
bool
sameBits(const std::vector<sim::Value>& a, const std::vector<sim::Value>& b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](sim::Value x, sim::Value y) {
                          return std::bit_cast<std::uint64_t>(x) ==
                                 std::bit_cast<std::uint64_t>(y);
                      });
}

TEST(KernelLibraryTest, MakeInitialStateEqualsTheBoundSpec)
{
    std::vector<ir::Loop> loops;
    for (auto& w : workloads::kernelLibrary())
        loops.push_back(std::move(w.loop));
    support::Rng rng(20260806);
    for (int k = 0; k < 200; ++k) {
        loops.push_back(workloads::generateLoop(
            rng, "f" + std::to_string(k), workloads::fuzzProfile()));
    }
    ASSERT_EQ(loops.size(), 239u);
    for (const auto& loop : loops) {
        for (const int trip : {0, 1, 2, 5, 17, 40}) {
            for (const std::uint64_t seed : {1u, 23u, 77u}) {
                const auto spec = workloads::makeSimSpec(loop, trip, seed);
                const auto bound = sim::bindSpec(loop, spec);
                const auto direct =
                    workloads::makeInitialState(loop, trip, seed);
                SCOPED_TRACE(loop.name() + " trip " + std::to_string(trip) +
                             " seed " + std::to_string(seed));
                EXPECT_EQ(direct.tripCount, bound.tripCount);
                EXPECT_TRUE(sameBits(direct.liveIn, bound.liveIn));
                EXPECT_TRUE(sameBits(direct.seeds, bound.seeds));
                EXPECT_EQ(direct.seedFirst, bound.seedFirst);
                EXPECT_EQ(direct.seedCount, bound.seedCount);
                EXPECT_EQ(direct.memory.firstDifference(bound.memory), "");
                for (ir::ArrayId array = 0; array < loop.numArrays();
                     ++array) {
                    const int cells = static_cast<int>(
                        spec.arrays.at(loop.arrays()[array].name)
                            .second.size());
                    EXPECT_TRUE(sameBits(
                        direct.memory.snapshot(array, -spec.margin, cells),
                        bound.memory.snapshot(array, -spec.margin, cells)));
                }
            }
        }
    }
}

TEST(KernelLibraryTest, MakeInitialStateRejectsANegativeTrip)
{
    const auto w = workloads::kernelByName("daxpy");
    EXPECT_THROW(workloads::makeInitialState(w.loop, -1, 1), support::Error);
}

TEST(RandomLoopsTest, GeneratedLoopsValidate)
{
    support::Rng rng(123);
    for (int k = 0; k < 200; ++k) {
        const auto loop = workloads::generateLoop(
            rng, "g" + std::to_string(k));
        EXPECT_NO_THROW(loop.validate()) << loop.name();
        EXPECT_GE(loop.size(), 4);
        EXPECT_LE(loop.size(), 170);
    }
}

TEST(RandomLoopsTest, DeterministicInSeed)
{
    support::Rng a(77);
    support::Rng b(77);
    for (int k = 0; k < 20; ++k) {
        const auto la = workloads::generateLoop(a, "x");
        const auto lb = workloads::generateLoop(b, "x");
        EXPECT_EQ(la.toString(), lb.toString());
    }
}

TEST(RandomLoopsTest, SizeDistributionRoughlyMatchesTable3)
{
    // Table 3: number of operations has median ~12, mean ~19.5, max 163.
    support::Rng rng(2026);
    std::vector<double> sizes;
    for (int k = 0; k < 1300; ++k)
        sizes.push_back(workloads::generateLoop(rng, "s").size());
    const double med = support::median(sizes);
    const double mean = support::mean(sizes);
    EXPECT_GE(med, 7.0);
    EXPECT_LE(med, 17.0);
    EXPECT_GE(mean, 13.0);
    EXPECT_LE(mean, 27.0);
}

TEST(CorpusTest, MatchesPaperComposition)
{
    workloads::CorpusSpec spec;
    spec.perfectLoops = 50; // smaller for test speed
    spec.specLoops = 20;
    spec.lfkLoops = 10;
    const auto corpus = workloads::buildCorpus(spec);
    EXPECT_EQ(corpus.size(), 80u);
    int perfect = 0, spec_count = 0, lfk = 0;
    for (const auto& w : corpus) {
        perfect += w.suite == "perfect";
        spec_count += w.suite == "spec";
        lfk += w.suite == "lfk";
        EXPECT_NO_THROW(w.loop.validate());
    }
    EXPECT_EQ(perfect, 50);
    EXPECT_EQ(spec_count, 20);
    EXPECT_EQ(lfk, 10);
}

TEST(CorpusTest, DefaultSpecIs1327Loops)
{
    const workloads::CorpusSpec spec;
    EXPECT_EQ(spec.perfectLoops + spec.specLoops + spec.lfkLoops, 1327);
}

TEST(CorpusTest, DeterministicAcrossBuilds)
{
    workloads::CorpusSpec spec;
    spec.perfectLoops = 15;
    spec.specLoops = 5;
    spec.lfkLoops = 3;
    const auto a = workloads::buildCorpus(spec);
    const auto b = workloads::buildCorpus(spec);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k)
        EXPECT_EQ(a[k].loop.toString(), b[k].loop.toString());
}

TEST(ProfileModelTest, DeterministicAndRoughly45PercentExecuted)
{
    int executed = 0;
    for (int k = 0; k < 1327; ++k) {
        const auto p1 = workloads::syntheticProfile(k);
        const auto p2 = workloads::syntheticProfile(k);
        EXPECT_EQ(p1.executed, p2.executed);
        EXPECT_EQ(p1.loopFreq, p2.loopFreq);
        executed += p1.executed;
        if (p1.executed) {
            EXPECT_GE(p1.entryFreq, 1u);
            EXPECT_GE(p1.loopFreq, p1.entryFreq);
        }
    }
    EXPECT_GT(executed, 1327 * 0.35);
    EXPECT_LT(executed, 1327 * 0.55);
}

/**
 * FNV-1a 64-bit hash of the canonical printed form of `count` generated
 * loops. Any change to the generator's draw sequence, the profile
 * defaults, or the printer shows up here.
 */
std::uint64_t
generatorHash(std::uint64_t seed, const workloads::GeneratorProfile& profile,
              int count)
{
    support::Rng rng(seed);
    std::uint64_t hash = 1469598103934665603ULL;
    for (int i = 0; i < count; ++i) {
        const std::string text = ir::printLoop(
            workloads::generateLoop(rng, "g" + std::to_string(i), profile));
        for (const char c : text) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 1099511628211ULL;
        }
    }
    return hash;
}

// Golden hashes pin generateLoop's output for fixed seeds. Fuzz
// campaigns, minimized reproducers, and CI smoke runs all replay by
// regenerating cases from their recorded seeds, so the generator must
// stay bit-stable across platforms and refactors. If this test fails
// because of a DELIBERATE generator change, update the constants and
// expect recorded fuzz case seeds to map to different cases.
TEST(RandomLoopsTest, GeneratorIsSeedStable)
{
    const workloads::GeneratorProfile corpus;
    const workloads::GeneratorProfile fuzz = workloads::fuzzProfile();
    EXPECT_EQ(generatorHash(1, corpus, 20), 0xcbe95bbf363d48d1ULL);
    EXPECT_EQ(generatorHash(2, corpus, 20), 0x382fe3319c15ea8eULL);
    EXPECT_EQ(generatorHash(1994, corpus, 20), 0x404ecae308e7bb0aULL);
    EXPECT_EQ(generatorHash(1, fuzz, 20), 0x69878d93d060cc10ULL);
    EXPECT_EQ(generatorHash(404, fuzz, 20), 0xdfb81c434680b470ULL);
}

TEST(ProfileModelTest, ExecutionTimeFormula)
{
    workloads::LoopProfile profile;
    profile.executed = true;
    profile.entryFreq = 10;
    profile.loopFreq = 1000;
    // EntryFreq*SL + (LoopFreq-EntryFreq)*II.
    EXPECT_DOUBLE_EQ(workloads::executionTime(profile, 30, 4),
                     10.0 * 30 + 990.0 * 4);
    profile.executed = false;
    EXPECT_DOUBLE_EQ(workloads::executionTime(profile, 30, 4), 0.0);
}

} // namespace
