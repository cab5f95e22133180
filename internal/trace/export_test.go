package trace

// Helpers exported to the external trace_test package, whose tests
// drive the streaming replay in internal/bench (which imports trace).
var (
	TraceCluster = traceCluster
	SumProgram   = testProgram
)
