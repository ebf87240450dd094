// Scaling: the communication study at laptop scale. Runs the same KMC
// workload under the traditional full-ghost exchange and the paper's
// on-demand strategy, on 1-8 goroutine ranks, printing byte-exact
// communication volumes and verifying the trajectories are identical — the
// Figure 12/13 experiment in miniature.
package main

import (
	"fmt"
	"log"

	"mdkmc"
	"mdkmc/internal/kmc"
	"mdkmc/internal/mpi"
)

func run(cfg kmc.Config, cycles int) (bytes, msgs int64, checksum int) {
	w := mpi.NewWorld(cfg.Ranks())
	stats := make([]mpi.Stats, cfg.Ranks())
	sums := make([]int, cfg.Ranks())
	w.Run(func(c *mpi.Comm) {
		st, err := kmc.NewState(cfg, c)
		if err != nil {
			log.Fatal(err)
		}
		base := st.Stats()
		for i := 0; i < cycles; i++ {
			st.Cycle()
		}
		s := st.Stats()
		stats[c.Rank()] = mpi.Stats{
			BytesSent: s.BytesSent - base.BytesSent,
			MsgsSent:  s.MsgsSent - base.MsgsSent,
		}
		sum := 0
		for k, v := range st.Snapshot() {
			sum += k * int(v+1)
		}
		sums[c.Rank()] = sum
	})
	for r := range stats {
		bytes += stats[r].BytesSent
		msgs += stats[r].MsgsSent
		checksum += sums[r]
	}
	return
}

func main() {
	const cycles = 8
	fmt.Println("KMC communication protocols, identical workload (byte-exact counters)")
	for _, g := range [][3]int{{2, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
		cfg := mdkmc.DefaultKMCConfig()
		cfg.Cells = [3]int{11 * g[0], 11 * g[1], 11 * g[2]}
		cfg.Grid = g
		cfg.VacancyConcentration = 5e-4
		fmt.Printf("\n%d ranks, %d sites, %d cycles:\n", cfg.Ranks(), cfg.NumSites(), cycles)

		var ref int
		for _, proto := range []mdkmc.Protocol{mdkmc.ProtocolTraditional, mdkmc.ProtocolOnDemand} {
			cfg.Protocol = proto
			bytes, msgs, sum := run(cfg, cycles)
			if proto == mdkmc.ProtocolTraditional {
				ref = sum
			}
			match := "identical trajectory"
			if sum != ref {
				match = "TRAJECTORY DIVERGED"
			}
			fmt.Printf("  %-18v %9d bytes %6d msgs   %s\n", proto, bytes, msgs, match)
		}
	}
}
