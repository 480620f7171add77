package anen

import "math/rand"

// RunAUA executes the full adaptive loop in-process from seed's random
// locations.
func RunAUA(d *Dataset, cfg AUAConfig, seed int64) (*Result, error) {
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	seeds := SeedLocations(d, cfg.Seeds, rng)
	return RunAUAFromSeeds(d, cfg, seeds, rng)
}
