// Sortjob: the paper's Sort benchmark end-to-end — generate random
// records with RandomWriter, sort them with a full map/shuffle/reduce job,
// and compare execution time across every registered storage backend
// (hdfs, lustre, and one burst buffer per scheme, bb-adaptive included),
// showing where each backend's bytes ended up.
package main

import (
	"fmt"
	"log"

	"hbb"
)

func main() {
	const (
		nodes   = 8
		maps    = 32
		totalGB = 8
	)
	perMap := int64(totalGB) << 30 / maps

	fmt.Printf("Sort of %d GiB on %d nodes (%d maps):\n\n", totalGB, nodes, maps)
	fmt.Printf("%-12s %9s %9s %12s %11s\n", "backend", "gen(s)", "sort(s)", "local-maps", "shuffled")

	var hdfsTime, lustreTime float64
	for _, b := range hbb.AllBackends {
		tb, err := hbb.New(hbb.Options{Nodes: nodes, Seed: 11, ChunkSize: 4 << 20})
		if err != nil {
			log.Fatal(err)
		}
		tb.Run(func(ctx *hbb.Ctx) {
			gen, err := ctx.RandomWriter(b, "/records", maps, perMap)
			if err != nil {
				log.Fatalf("%s randomwriter: %v", b, err)
			}
			res, err := ctx.Sort(b, "/records", "/sorted", nodes*2)
			if err != nil {
				log.Fatalf("%s sort: %v", b, err)
			}
			fmt.Printf("%-12s %9.2f %9.2f %8d/%-3d %8.1f GiB\n",
				b, gen.Duration.Seconds(), res.Duration.Seconds(),
				res.DataLocalMaps, res.MapTasks, float64(res.BytesShuffled)/(1<<30))
			switch b {
			case hbb.BackendHDFS:
				hdfsTime = res.Duration.Seconds()
			case hbb.BackendLustre:
				lustreTime = res.Duration.Seconds()
			case hbb.BackendBBAsync:
				fmt.Printf("\n  bb-async sort vs HDFS: %+.0f%%   vs Lustre: %+.0f%%\n",
					(res.Duration.Seconds()-hdfsTime)/hdfsTime*100,
					(res.Duration.Seconds()-lustreTime)/lustreTime*100)
			}
		})
	}
}
