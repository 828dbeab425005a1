#include "sched/attempt_feedback.hpp"

#include "sched/mrt.hpp"
#include "support/counters.hpp"

namespace ims::sched {

void
AttemptCounters::flushInto(support::Counters& counters,
                           const ModuloReservationTable& mrt) const
{
    counters.estartPredecessorVisits += estartVisits;
    counters.estartIncrementalHits += estartIncrementalHits;
    counters.findTimeSlotProbes += slotProbes;
    counters.scheduleSteps += scheduleSteps;
    counters.unscheduleSteps += unscheduleSteps;
    counters.mrtMaskProbes += mrt.maskProbes();
    counters.mrtSlotScans += mrt.slotScans();
}

void
AttemptFeedback::clear()
{
    ii = 0;
    status = AttemptStatus::kBudgetExhausted;
    unplaceable.clear();
    displacements.clear();
    contendedResources.clear();
}

} // namespace ims::sched
