// irregular exercises the paper's motivating hard case (Sec. I,
// Fig. 2): network nodes that are NOT regularly aligned on the chip.
// Manual ring design is error-prone there; XRing's MILP finds the
// minimum-length conflict-free ring automatically, and nodes that end
// up ring-opposite but physically adjacent get shortcuts — including
// CSE-merged crossing shortcuts.
//
// Run with:
//
//	go run ./examples/irregular
package main

import (
	"fmt"
	"log"
	"os"

	"xring"
)

func main() {
	// A 10-node irregular placement on a 30x30 mm die (deterministic
	// seed; this instance is known to produce a CSE-merged shortcut
	// pair whose swapped signals genuinely beat the ring).
	net := xring.Irregular(10, 30, 30, 3, 8)

	full, err := xring.Synthesize(net, xring.Options{MaxWL: 10, WithPDN: true})
	if err != nil {
		log.Fatal(err)
	}
	bare, err := xring.Synthesize(net, xring.Options{
		MaxWL: 10, WithPDN: true, DisableShortcuts: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("irregular 10-node network, ring tour %.1f mm\n", full.Ring.Length)
	fmt.Printf("shortcuts: %d", len(full.Design.Shortcuts))
	pairs := 0
	for i, s := range full.Design.Shortcuts {
		if s.Partner > i {
			pairs++
			fmt.Printf("  [CSE pair: %d<->%d crosses %d<->%d]",
				s.A, s.B, full.Design.Shortcuts[s.Partner].A, full.Design.Shortcuts[s.Partner].B)
		}
	}
	fmt.Println()

	fmt.Printf("\n%-28s %10s %10s\n", "", "with", "without")
	fmt.Printf("%-28s %10s %10s\n", "", "shortcuts", "shortcuts")
	fmt.Printf("%-28s %9.2f dB %9.2f dB\n", "worst-case insertion loss",
		full.Loss.WorstIL, bare.Loss.WorstIL)
	fmt.Printf("%-28s %9.1f mm %9.1f mm\n", "worst-loss path length",
		full.Loss.WorstLen, bare.Loss.WorstLen)
	fmt.Printf("%-28s %7.3f mW %8.3f mW\n", "total laser power",
		full.Loss.TotalPowerMW, bare.Loss.TotalPowerMW)

	// Shortest paths for the signals the shortcuts serve.
	fmt.Println("\nshortcut-supported signals:")
	for sig, r := range full.Design.Routes {
		if r.Kind == xring.OnShortcut {
			fl := full.Loss.Signal(sig)
			bl := bare.Loss.Signal(sig)
			fmt.Printf("  %v: %.1f mm on shortcut vs %.1f mm on ring (%.2f dB vs %.2f dB)\n",
				sig, fl.PathLen, bl.PathLen, fl.IL, bl.IL)
		}
	}

	if err := os.WriteFile("irregular10.svg", []byte(xring.RenderSVG(full.Design)), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote irregular10.svg (purple chords = CSE-merged shortcuts)")
}
