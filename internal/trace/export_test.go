package trace

// The external tests (package trace_test) reach the reference pack and
// the column comparison through these.
var (
	ReferencePack = referencePack
	PackedDiff    = packedDiff
)
