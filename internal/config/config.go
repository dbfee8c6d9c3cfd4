// Package config assembles the four simulated systems of the evaluation
// (Table 1): conventional DRAM, plain RRAM, the proposed RC-NVM, and the
// GS-DRAM comparator — each pairing a memory device with the common 4-core
// 2 GHz processor and 3-level cache hierarchy.
package config

import (
	"fmt"
	"math"

	"rcnvm/internal/cache"
	"rcnvm/internal/cpu"
	"rcnvm/internal/device"
	"rcnvm/internal/fault"
	"rcnvm/internal/memctrl"
	"rcnvm/internal/tier"
)

// System is one complete simulated machine.
type System struct {
	Name      string
	Device    device.Config
	Cache     cache.Config
	CPU       cpu.Config
	MemWindow int
	MemPolicy memctrl.Policy
	// Fault configures raw-bit-error injection on the memory device (the
	// zero value disables it, leaving the simulated timing byte-identical
	// to a fault-free build).
	Fault fault.Config
	// Tier configures a hybrid DRAM cache in front of the NVM device with
	// row-buffer-locality-aware migration (the zero value disables it,
	// leaving the simulated timing byte-identical to a tier-free build).
	Tier tier.Config
}

func base(dev device.Config) System {
	return System{
		Name:      dev.Kind.String(),
		Device:    dev,
		Cache:     cache.DefaultConfig(),
		CPU:       cpu.DefaultConfig(),
		MemWindow: memctrl.DefaultWindow,
	}
}

// DRAM returns the DDR3-1333 baseline system.
func DRAM() System { return base(device.DRAMConfig()) }

// RRAM returns the plain (row-only) RRAM system.
func RRAM() System { return base(device.RRAMConfig()) }

// RCNVM returns the proposed RC-NVM system.
func RCNVM() System { return base(device.RCNVMConfig()) }

// GSDRAM returns the GS-DRAM comparator system.
func GSDRAM() System { return base(device.GSDRAMConfig()) }

// All returns the four systems in the order the paper's figures list them:
// RC-NVM, RRAM, GS-DRAM, DRAM.
func All() []System {
	return []System{RCNVM(), RRAM(), GSDRAM(), DRAM()}
}

// RCNVMLatencyFactor is the circuit-level read-latency overhead applied to
// the underlying NVM cell (Figure 5 at 512 lines: tRCD 10 -> 12).
const RCNVMLatencyFactor = 1.2

// RCNVMWriteFactor is the write-pulse overhead (10 ns -> 15 ns in Table 1).
const RCNVMWriteFactor = 1.5

// RRAMAt returns a plain-RRAM system with the cell read access time and
// write pulse width scaled to the given values (the Figure 22 sensitivity
// sweep).
func RRAMAt(readNs, writeNs float64) System {
	s := RRAM()
	s.Device.Timing = nvmTiming(readNs, writeNs)
	s.Name = fmt.Sprintf("RRAM(%gns/%gns)", readNs, writeNs)
	return s
}

// RCNVMAt returns an RC-NVM system whose underlying cell has the given read
// access time and write pulse, with the dual-access circuit overheads
// applied on top.
func RCNVMAt(readNs, writeNs float64) System {
	s := RCNVM()
	s.Device.Timing = nvmTiming(readNs*RCNVMLatencyFactor, writeNs*RCNVMWriteFactor)
	s.Name = fmt.Sprintf("RC-NVM(%gns/%gns)", readNs, writeNs)
	return s
}

// nvmTiming converts a cell read access time into LPDDR3-800 cycles
// (2.5 ns clock) keeping the remaining Table 1 parameters.
func nvmTiming(readNs, writeNs float64) device.Timing {
	t := device.RRAMTiming()
	trcd := int64(math.Round(readNs * 1000 / float64(t.ClockPs)))
	if trcd < 1 {
		trcd = 1
	}
	t.TRCD = trcd
	t.WritePulsePs = int64(math.Round(writeNs * 1000))
	return t
}

// SensitivityPoints are the (read, write) cell latencies of Figure 22, in
// nanoseconds.
func SensitivityPoints() [][2]float64 {
	return [][2]float64{{12.5, 5}, {25, 10}, {50, 20}, {100, 40}, {200, 80}}
}

// The paper notes (§2.3) that the RC design extends to any crossbar NVM:
// PCM and 3D XPoint presets let the technology-comparison experiment show
// how much of the benefit survives slower cells.

// RCPCM returns an RC-NVM system built on PCM-class cells (~50 ns read,
// ~150 ns write pulse), with the same dual-access circuit overheads.
func RCPCM() System {
	s := RCNVMAt(50, 150)
	s.Name = "RC-PCM"
	return s
}

// RCXPoint returns an RC-NVM system built on 3D XPoint-class cells
// (~100 ns read, ~300 ns write pulse).
func RCXPoint() System {
	s := RCNVMAt(100, 300)
	s.Name = "RC-3DXP"
	return s
}

// Technologies returns the crossbar-technology variants plus the DRAM
// reference, for the extension experiment.
func Technologies() []System {
	rc := RCNVM()
	rc.Name = "RC-RRAM"
	return []System{rc, RCPCM(), RCXPoint(), DRAM()}
}
