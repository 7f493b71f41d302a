package bench

import "fmt"

// Runner produces one experiment table.
type Runner func() (*Table, error)

// Experiments returns the full registry E1–E18 in order. attackGames
// controls how many games E5 plays per configuration.
func Experiments(attackGames int) []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"E1", E1Efficiency},
		{"E2", func() (*Table, error) { return E2LeakageRates(), nil }},
		{"E3", E3Sizes},
		{"E4", E4Latency},
		{"E5", func() (*Table, error) { return E5Attack(attackGames) }},
		{"E6", E6DeviceAsymmetry},
		{"E7", E7DIBE},
		{"E8", E8CCA2},
		{"E9", E9Storage},
		{"E10", E10Ablations},
		{"E11", E11FastPath},
		{"E12", E12PairingTables},
		{"E13", E13Throughput},
		{"E14", E14Memory},
		{"E15", E15Parallel},
		{"E16", E16Server},
		{"E17", E17Rotation},
		{"E18", E18Wire},
	}
}

// Run executes the experiment with the given ID (or all when id == "").
// Tables are returned in execution order.
func Run(id string, attackGames int) ([]*Table, error) {
	var out []*Table
	for _, e := range Experiments(attackGames) {
		if id != "" && e.ID != id {
			continue
		}
		t, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.ID, err)
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: unknown experiment %q", id)
	}
	return out, nil
}
