package experiments

import (
	"context"

	"rcnvm/internal/config"
	"rcnvm/internal/imdb"
	"rcnvm/internal/memctrl"
	"rcnvm/internal/par"
	"rcnvm/internal/sim"
	"rcnvm/internal/workload"
)

// Ablation switches off one design choice or baseline assumption per
// comparison (DESIGN.md, "Design choices worth ablating"): one active
// buffer per bank against ideal dual buffers on Q1, FR-FCFS against FCFS
// for Q3 on DRAM, pinning on and off for Q14 at 128 group-cached lines,
// and a column scan over a DRAM row store, DRAM PAX and RC-NVM
// column-major on caches shrunk so the table is memory-resident. Each
// comparison's first cell is its base. Cycles print whole, as some gaps
// are far below an Mcycles column's resolution. workers bounds the
// parallel simulation cells (<= 0 means one per CPU).
func Ablation(scale Scale, workers int) (TableData, error) {
	p := ParamsFor(scale)
	query := func(id string, sys config.System, p workload.Params) func() (sim.Result, error) {
		q, _ := workload.QueryByID(id)
		return func() (sim.Result, error) { return workload.Run(sys, q, p) }
	}
	colRead := func(sys config.System, layout imdb.Layout) func() (sim.Result, error) {
		sys.Cache.L2Sets, sys.Cache.L3Sets = 64, 256
		m := workload.MicroSpec{ID: "col-read", Layout: layout, Column: true}
		return func() (sim.Result, error) { return workload.RunMicro(sys, m, p) }
	}
	ideal, fcfs := config.RCNVM(), config.DRAM()
	ideal.Device.IdealDualBuffers = true
	fcfs.MemPolicy = memctrl.FCFS
	pinned, unpinned := p, p
	pinned.GroupLines, unpinned.GroupLines, unpinned.DisablePinning = 128, 128, true
	cells := []struct {
		label string
		base  bool
		run   func() (sim.Result, error)
	}{
		{"Q1 RC-NVM, one active buffer", true, query("Q1", config.RCNVM(), p)},
		{"Q1 RC-NVM, ideal dual buffers", false, query("Q1", ideal, p)},
		{"Q3 DRAM, FR-FCFS", true, query("Q3", config.DRAM(), p)},
		{"Q3 DRAM, FCFS", false, query("Q3", fcfs, p)},
		{"Q14 RC-NVM 128 lines, pinned", true, query("Q14", config.RCNVM(), pinned)},
		{"Q14 RC-NVM 128 lines, unpinned", false, query("Q14", config.RCNVM(), unpinned)},
		{"col-read DRAM row store", true, colRead(config.DRAM(), imdb.RowMajor)},
		{"col-read DRAM PAX", false, colRead(config.DRAM(), imdb.PAX)},
		{"col-read RC-NVM col-major", false, colRead(config.RCNVM(), imdb.ColMajor)},
	}
	results, err := par.Sweep(context.Background(), workers, len(cells), func(i int) (sim.Result, error) {
		return cells[i].run()
	})
	if err != nil {
		return TableData{}, err
	}
	t := TableData{ID: "Ablation", Title: "Design choices and baseline assumptions, one switched off per comparison",
		XLabels: []string{"CPU cycles", "vs base %"}}
	var base float64
	for i, c := range cells {
		cycles := float64(results[i].Cycles())
		if c.base {
			base = cycles
		}
		t.Series = append(t.Series, Series{Label: c.label, Values: []float64{cycles, (cycles/base - 1) * 100}})
	}
	t.Notes = append(t.Notes,
		"vs base % is against the comparison's first cell; col-read runs on 32 KB L2 and 128 KB L3 caches")
	return t, nil
}
