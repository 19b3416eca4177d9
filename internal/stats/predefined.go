package stats

import (
	"fmt"

	"tracefw/internal/interval"
)

// Predefined returns the source of the pre-defined tables generated when
// the statistics utility is given no program (paper §3.2). The first —
// the sum of the duration of "interesting" intervals (states other than
// the default Running state) per node and per `bins` equally sized time
// bins (<= 0: interval.DefaultBins) — is the table visualized in the
// paper's Figure 6.
func Predefined(bins int) string {
	if bins <= 0 {
		bins = interval.DefaultBins
	}
	return fmt.Sprintf(`
# Figure 6: interesting (non-Running) time per node per time bin.
table name=interesting_by_node_bin
      condition=(state != "Running" && state != "GlobalClock")
      x=("node", node)
      x=("bin", bin(start, %d))
      y=("sum(duration)", dura, sum)

# Per-state call counts and durations.
table name=duration_by_state
      condition=(state != "GlobalClock")
      x=("state", state)
      y=("calls", iscall, sum)
      y=("sum(duration)", dura, sum)
      y=("avg(duration)", dura, avg)
      y=("max(duration)", dura, max)

# Message traffic matrix: bytes sent between task pairs, from the
# final pieces of send-type intervals.
table name=bytes_by_pair
      condition=((state == "MPI_Send" || state == "MPI_Isend" || state == "MPI_Sendrecv") && msgSizeSent > 0)
      x=("srcNode", node)
      x=("dstTask", peer)
      y=("bytes", msgSizeSent, sum)
      y=("messages", iscall, sum)

# Processor occupancy: busy time per node and CPU.
table name=busy_by_cpu
      condition=(state != "GlobalClock")
      x=("node", node)
      x=("processor", cpu)
      y=("busy", dura, sum)

# Thread activity: time per node, thread and state.
table name=thread_state_time
      condition=(state != "GlobalClock")
      x=("node", node)
      x=("thread", thread)
      x=("state", state)
      y=("time", dura, sum)
      y=("pieces", 1, count)
`, bins)
}
