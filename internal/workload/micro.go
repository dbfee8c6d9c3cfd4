package workload

import (
	"fmt"

	"rcnvm/internal/config"
	"rcnvm/internal/device"
	"rcnvm/internal/imdb"
	"rcnvm/internal/query"
	"rcnvm/internal/sim"
	"rcnvm/internal/trace"
)

// MicroSpec is one Figure 17 micro-benchmark: a full-table scan in one
// direction over one intra-chunk layout.
type MicroSpec struct {
	ID     string
	Layout imdb.Layout // L1 = RowMajor, L2 = ColMajor
	Column bool        // scan direction: false = row (tuple-major), true = column (field-major)
	Write  bool
}

// MicroSpecs returns the eight Figure 17 micro-benchmarks in the paper's
// order.
func MicroSpecs() []MicroSpec {
	return []MicroSpec{
		{ID: "row-read-L1", Layout: imdb.RowMajor},
		{ID: "row-write-L1", Layout: imdb.RowMajor, Write: true},
		{ID: "row-read-L2", Layout: imdb.ColMajor},
		{ID: "row-write-L2", Layout: imdb.ColMajor, Write: true},
		{ID: "col-read-L1", Layout: imdb.RowMajor, Column: true},
		{ID: "col-write-L1", Layout: imdb.RowMajor, Column: true, Write: true},
		{ID: "col-read-L2", Layout: imdb.ColMajor, Column: true},
		{ID: "col-write-L2", Layout: imdb.ColMajor, Column: true, Write: true},
	}
}

// MicroTable is the table scanned by the micro-benchmarks (the table-a
// shape).
func MicroTable(p Params) *imdb.Table {
	return imdb.NewTable(imdb.Uniform("micro", 16), p.TuplesA)
}

// placeMicro places the micro table with the requested layout on the
// system's memory: native subarrays for RC-NVM and RRAM, flattened grids
// for DRAM/GS-DRAM.
func placeMicro(sys config.System, p Params, layout imdb.Layout) (imdb.Placement, error) {
	tbl := MicroTable(p)
	switch sys.Device.Kind {
	case device.RCNVM, device.RRAM:
		return imdb.NewNVMAllocatorSpread(sys.Device.Geom, spreadChunks).Place(tbl, layout)
	default:
		return imdb.NewGridAllocator(sys.Device.Geom).Place(tbl, layout)
	}
}

// MicroStreams lowers one micro-benchmark to its per-core streams.
func MicroStreams(sys config.System, m MicroSpec, p Params) ([]trace.Stream, error) {
	place, err := placeMicro(sys, p, m.Layout)
	if err != nil {
		return nil, err
	}
	e := query.New(query.ArchOf(sys.Device.Kind), sys.CPU.Cores)
	e.BeginQuery(place.Table())
	if m.Column {
		err = e.ScanColumns(place, m.Write, 1)
	} else {
		err = e.ScanTuples(place, m.Write, int64(place.Table().Schema.TupleWords()))
	}
	if err != nil {
		return nil, fmt.Errorf("micro %s: %w", m.ID, err)
	}
	return e.Streams(), nil
}

// RunMicro executes one micro-benchmark on one system.
func RunMicro(sys config.System, m MicroSpec, p Params) (sim.Result, error) {
	streams, err := MicroStreams(sys, m, p)
	if err != nil {
		return sim.Result{}, err
	}
	res, err := sim.RunOn(sys, streams)
	if err != nil {
		return sim.Result{}, err
	}
	res.Name = fmt.Sprintf("%s/%s", m.ID, sys.Name)
	return res, nil
}
