package modchecker_test

import (
	"crypto/sha256"
	"fmt"

	"modchecker"
	"modchecker/internal/experiments"
)

func init() {
	modchecker.SimcostFig9Line = func() (string, error) {
		res, err := experiments.Fig9(120, 1)
		if err != nil {
			return "", err
		}
		samples := sha256.New()
		if err := res.Trace.WriteCSV(samples); err != nil {
			return "", err
		}
		return fmt.Sprintf("fig9 sim_ns=%d pt_walks=%d bytes_read=%d samples_sha256=%x\n",
			res.Dom0.Nanoseconds(), res.PTWalks, res.BytesRead, samples.Sum(nil)), nil
	}
}
