package stats

import "tracefw/internal/interval"

// GenerateSpecsScalar runs specs on the record-at-a-time evaluator
// whether or not they are lowerable. It is the oracle the differential
// suite and FuzzCompile compare the production path against; production
// code reaches that evaluator only as the fallback for programs the
// kernel compiler rejects.
func GenerateSpecsScalar(specs []*TableSpec, files []*interval.File, opts Options) ([]*Table, error) {
	return generate(nil, specs, files, opts)
}
