package core_test

import (
	"fmt"

	"fdgrid/internal/core"
)

// ExampleCanTransform shows the paper's motivating addition as a
// reducibility query.
func ExampleCanTransform() {
	const t = 3
	v := core.CanTransform(
		[]core.Class{{Fam: core.FamEvtS, Param: t}, {Fam: core.FamEvtPhi, Param: 1}},
		core.Class{Fam: core.FamOmega, Param: 1}, t)
	fmt.Println(v.OK)
	// Output: true
}

// ExampleKSetPower shows grid-line lookups.
func ExampleKSetPower() {
	const t = 3
	fmt.Println(core.KSetPower(core.Class{Fam: core.FamOmega, Param: 2}, t))
	fmt.Println(core.KSetPower(core.Class{Fam: core.FamEvtS, Param: t + 1}, t))
	fmt.Println(core.KSetPower(core.Class{Fam: core.FamPhi, Param: 0}, t))
	// Output:
	// 2
	// 1
	// 4
}
