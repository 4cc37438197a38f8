//go:build !lruleakdebug

package replacement

// debugChecks gates the explicit bounds checks on the packed SetArray
// fast path. Release builds rely on Go's slice bounds checking alone and
// keep the per-access update branch-minimal; build with
//
//	go test -tags lruleakdebug ./...
//
// to turn the descriptive panics back on while debugging a driver. The
// per-set reference policies in the tests keep their checkWay panics
// unconditionally.
const debugChecks = false
