package stats

import "tracefw/internal/interval"

// GenerateSpecsScalar runs specs on the record-at-a-time oracle
// (oracle_test.go). It is what the differential suite and FuzzCompile
// compare the kernels against; production never reaches that evaluator.
func GenerateSpecsScalar(specs []*TableSpec, files []*interval.File, opts interval.MapOptions) ([]*Table, error) {
	tStart, tEnd, err := runBounds(files)
	if err != nil {
		return nil, err
	}
	groups, skipped, err := runScalar(specs, files, opts, tStart, tEnd)
	if err != nil {
		return nil, err
	}
	return buildTables(specs, groups, skipped), nil
}
