// Database: the functional engine end to end. Stores real tuples in the
// dual-addressable memory model, answers real queries (with actual
// values), and replays the recorded access trace on the timing simulator —
// the same plan with and without column accesses.
//
//	go run ./examples/database
package main

import (
	"fmt"
	"log"
	"math/rand"

	"rcnvm/internal/config"
	"rcnvm/internal/engine"
	"rcnvm/internal/imdb"
	"rcnvm/internal/sim"
	"rcnvm/internal/trace"
)

func main() {
	db, err := engine.Open()
	if err != nil {
		log.Fatal(err)
	}

	// CREATE TABLE orders (id, customer, amount, region, ...)
	schema := imdb.Schema{Name: "orders", Fields: []imdb.Field{
		{Name: "id", Words: 1},
		{Name: "customer", Words: 1},
		{Name: "amount", Words: 1},
		{Name: "region", Words: 1},
		{Name: "pad1", Words: 2},
		{Name: "pad2", Words: 2},
	}}
	const n = 20000
	orders, err := db.CreateTable("orders", schema, n)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2018))
	for i := 0; i < n; i++ {
		if _, err := orders.Append(
			uint64(i), uint64(rng.Intn(500)), uint64(rng.Intn(10000)),
			uint64(rng.Intn(8)), 0, 0, 0, 0); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("loaded %d orders (%s in memory)\n\n", orders.Rows(), "col-major chunks on RC-NVM subarrays")

	// SELECT SUM(amount) FROM orders WHERE region = 3 — through a handle
	// that records its accesses, so we can time the very accesses that
	// produced the answer.
	var stream trace.Stream
	traced := orders.Traced(&stream)
	matches, err := traced.Where("region", engine.Eq, 3, engine.All)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := traced.Sum("amount", matches)
	if err != nil {
		log.Fatal(err)
	}

	rows := traced.Count(matches)
	avg := float64(sum) / float64(rows)
	fmt.Println("SELECT SUM(amount) FROM orders WHERE region = 3")
	fmt.Printf("  -> %d rows, SUM = %d, AVG = %.1f\n", rows, sum, avg)
	c := db.Mem().Counts()
	fmt.Printf("  engine accesses: %d column reads, %d row reads\n\n", c.ColReads, c.RowReads)

	// Replay the recorded plan on the timing simulator: once as recorded
	// (cloads) and once downgraded to row-only accesses — the same cells,
	// conventional addressing.
	dual, err := sim.RunOn(config.RCNVM(), []trace.Stream{stream})
	if err != nil {
		log.Fatal(err)
	}
	row, err := sim.RunOn(config.RCNVM(), []trace.Stream{trace.RowOnly(stream)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("replaying the recorded access trace on the timing simulator:")
	fmt.Printf("  with column accesses:    %8.3f Mcycles  (%d memory accesses)\n", dual.MCycles(), dual.MemAccesses())
	fmt.Printf("  row-only (conventional): %8.3f Mcycles  (%d memory accesses)\n", row.MCycles(), row.MemAccesses())
	fmt.Printf("  speedup: %.1fx\n", row.MCycles()/dual.MCycles())
}
