package fxrt

// Edge optionally attaches a real data transfer to a pipeline edge,
// mirroring the paper's communication model. When an edge has a Transfer
// function, the downstream instance executes it as the first step of its
// stage attempt (so a failed transfer is retried with the attempt), and
// its duration is recorded under Name. The upstream instance hands the
// data set over without waiting; the paper's rendezvous, in which both
// sides are occupied for the transfer, is modelled by the simulator.
type Edge struct {
	// Name labels the transfer in recorded statistics (e.g.
	// "edge:transpose").
	Name string
	// Transfer converts the upstream output into the downstream input. It
	// runs on the receiving instance's worker group. A nil Transfer makes
	// the handoff free (pointer pass).
	Transfer func(recv *StageCtx, in DataSet) (DataSet, error)
}
