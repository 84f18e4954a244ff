package bench

import (
	"fmt"
	"repro/internal/obs"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/vm"
)

// MigrationResult is the §VII-B migration-overhead measurement: the
// enclave-migration time on top of VM migration (paper: 0.47 ± 0.035 s
// over 1000 migrations), with the VM memory-copy time for context.
type MigrationResult struct {
	// Enclave summarizes the enclave-migration overhead per migration:
	// local attestation + transfer through both MEs + restore + DONE.
	Enclave stats.Summary
	// VMCopyVirtual is the virtual (model) time to live-migrate the
	// reference VM's memory, the baseline the overhead is compared to.
	VMCopyVirtual time.Duration
	// VMMemoryBytes is the reference VM memory size.
	VMMemoryBytes int
}

// MigrationOverhead measures cfg.N complete enclave migrations between
// two machines: each iteration creates state on the source, migrates,
// and restores on the destination, timing everything the migration
// framework adds on top of plain VM migration.
func MigrationOverhead(cfg Config) (*MigrationResult, error) {
	w, err := newWorld(cfg.Scale)
	if err != nil {
		return nil, err
	}
	img := appImage("migrate-bench")

	samples := make([]float64, 0, cfg.N)
	src, dst := w.src, w.dst
	for i := 0; i < cfg.N; i++ {
		app, err := src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			return nil, fmt.Errorf("iteration %d launch: %w", i, err)
		}
		if _, _, err := app.Library.CreateCounter(); err != nil {
			return nil, err
		}
		if _, err := app.Library.IncrementCounter(0); err != nil {
			return nil, err
		}

		start := time.Now()
		if err := app.Library.StartMigration(dst.MEAddress()); err != nil {
			return nil, fmt.Errorf("iteration %d migrate: %w", i, err)
		}
		app.Terminate()
		dstApp, err := dst.LaunchApp(img, core.NewMemoryStorage(), core.InitMigrated)
		if err != nil {
			return nil, fmt.Errorf("iteration %d restore: %w", i, err)
		}
		samples = append(samples, time.Since(start).Seconds())

		// Release the restored hardware counter so arbitrarily large N
		// never exhausts the destination's 256-counter budget.
		if err := dstApp.Library.DestroyCounter(0); err != nil {
			return nil, fmt.Errorf("iteration %d cleanup: %w", i, err)
		}
		dstApp.Terminate()
		// Swap roles so the next iteration migrates back (and the
		// destination-side state never accumulates).
		src, dst = dst, src
	}
	summary, err := stats.Summarize(samples, cfg.Confidence)
	if err != nil {
		return nil, err
	}
	observeSeconds(cfg.Metrics.Histogram(obs.MigrationEndToEnd), samples)
	cfg.recordSimCounts(w.dc.Latency)

	// Reference VM migration: a 1 GiB guest.
	const vmBytes = 1 << 30
	hvA := vm.NewHypervisor(w.src.HW)
	hvB := vm.NewHypervisor(w.dst.HW)
	guest, err := hvA.CreateVM("reference", vmBytes)
	if err != nil {
		return nil, err
	}
	_, copyTime, err := vm.LiveMigrate(guest, hvB)
	if err != nil {
		return nil, err
	}
	return &MigrationResult{
		Enclave:       summary,
		VMCopyVirtual: copyTime,
		VMMemoryBytes: vmBytes,
	}, nil
}
