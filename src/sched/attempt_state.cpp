#include "sched/attempt_state.hpp"

#include <algorithm>

namespace ims::sched {

void
finalizeAttemptFeedback(AttemptFeedback& feedback, int ii,
                        AttemptStatus status,
                        const PartialSchedule& schedule,
                        const graph::DepGraph& graph,
                        const std::vector<std::int32_t>& displace_count,
                        const std::vector<std::int64_t>& resource_evictions)
{
    feedback.clear();
    feedback.ii = ii;
    feedback.status = status;
    // Successful attempts carry no bottleneck.
    if (status == AttemptStatus::kScheduled)
        return;
    for (graph::VertexId v = 0; v < graph.numVertices(); ++v) {
        bool placeable = false;
        for (const auto& alt : schedule.compiledAlternativesOf(v))
            placeable = placeable || !alt.selfConflicts();
        if (!placeable)
            feedback.unplaceable.push_back(v);
    }
    for (graph::VertexId v = 0;
         v < static_cast<graph::VertexId>(displace_count.size()); ++v) {
        if (displace_count[v] > 0)
            feedback.displacements.push_back({v, displace_count[v]});
    }
    std::sort(feedback.displacements.begin(), feedback.displacements.end(),
              [](const AttemptFeedback::Displacement& a,
                 const AttemptFeedback::Displacement& b) {
                  return a.count != b.count ? a.count > b.count : a.op < b.op;
              });
    for (int r = 0; r < static_cast<int>(resource_evictions.size()); ++r) {
        if (resource_evictions[r] > 0)
            feedback.contendedResources.push_back({r, resource_evictions[r]});
    }
    std::sort(feedback.contendedResources.begin(),
              feedback.contendedResources.end(),
              [](const AttemptFeedback::ResourceContention& a,
                 const AttemptFeedback::ResourceContention& b) {
                  return a.evictions != b.evictions
                             ? a.evictions > b.evictions
                             : a.resource < b.resource;
              });
}

ScheduleResult
extractScheduleResult(const PartialSchedule& schedule,
                      const graph::DepGraph& graph, int ii,
                      std::int64_t steps_used, std::int64_t unschedules)
{
    ScheduleResult result;
    result.ii = ii;
    result.times.resize(graph.numOps());
    result.alternatives.resize(graph.numOps());
    for (graph::VertexId v = 0; v < graph.numOps(); ++v) {
        result.times[v] = schedule.timeOf(v);
        result.alternatives[v] = schedule.alternativeOf(v);
    }
    result.scheduleLength = schedule.timeOf(graph.stop());
    result.stepsUsed = steps_used;
    result.unschedules = unschedules;
    return result;
}

} // namespace ims::sched
