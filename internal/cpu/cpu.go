// Package cpu models the video-server node processors: a FCFS-scheduled
// CPU at a fixed MIPS rating (Table 1: 40 MIPS, FCFS scheduling) that is
// charged fixed instruction counts for the operations the paper costs —
// starting an I/O (20000 instructions), sending a message (6800) and
// receiving one (2200), values measured on the Intel Paragon.
package cpu

import (
	"fmt"

	"spiffi/internal/sim"
)

// Table 1 instruction counts for the charged operations.
const (
	startIOInstr int64 = 20000 // instructions to initiate a disk I/O
	SendInstr    int64 = 6800  // instructions to send a message
	ReceiveInstr int64 = 2200  // instructions to receive a message
)

// mips is the Table 1 processor rating.
const mips float64 = 40

// CPU is one node processor.
type CPU struct {
	fac *sim.Facility
}

// New creates node id's CPU.
func New(k *sim.Kernel, id int) *CPU {
	return &CPU{fac: sim.NewFacility(k, fmt.Sprintf("cpu-%d", id))}
}

// InstrTime converts an instruction count into execution time at the
// Table 1 rating.
func InstrTime(instrs int64) sim.Duration {
	return sim.DurationOfSeconds(float64(instrs) / (mips * 1e6))
}

// Execute charges `instrs` instructions, queueing FCFS behind other work.
func (c *CPU) Execute(p *sim.Proc, instrs int64) {
	if instrs <= 0 {
		return
	}
	c.fac.Use(p, InstrTime(instrs))
}

// StartIO charges the I/O initiation cost.
func (c *CPU) StartIO(p *sim.Proc) { c.Execute(p, startIOInstr) }

// Send charges the message send cost.
func (c *CPU) Send(p *sim.Proc) { c.Execute(p, SendInstr) }

// Receive charges the message receive cost.
func (c *CPU) Receive(p *sim.Proc) { c.Execute(p, ReceiveInstr) }

// BusyTime reports the CPU's cumulative busy time, including the
// instructions executing now.
func (c *CPU) BusyTime() sim.Duration { return c.fac.BusyTime() }
