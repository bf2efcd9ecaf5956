//go:build race

package experiments

// raceEnabled lets the sim-gate golden skip under the race detector:
// 21 single-goroutine experiments gain nothing from it and take ~10x
// longer. `make sim-gate` runs them without it.
const raceEnabled = true
