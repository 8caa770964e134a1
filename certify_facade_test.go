package safeplan

import (
	"strings"
	"testing"
)

// TestCertifyRefusedOutsideLeftTurn pins where verified mode runs.  Left
// turn, which implements it, is the positive control through both
// RunEpisode and NewStepper.  The multi-vehicle engine has no verified
// mode, so a Certify field on its config must return a safeplan-prefixed
// error instead of running with the certified-range counters silently
// left at zero.  The car-following and platoon configs have no Certify
// field, so their refusal holds by type.
func TestCertifyRefusedOutsideLeftTurn(t *testing.T) {
	sc := DefaultScenario()
	kn, err := LoadPlanner("models/nn-cons.json", "nn-cons", sc)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := NewIBPPropagator(kn)
	if err != nil {
		t.Fatal(err)
	}
	certify := &CertifyConfig{Prop: prop}

	cfg := DefaultSimConfig()
	cfg.InfoFilter = true
	cfg.Certify = certify
	agent := BuildUltimate(sc, kn)
	res, err := RunEpisode(cfg, agent, 1)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	if res.CertifiedSteps == 0 {
		t.Fatal("RunEpisode: verified mode certified nothing")
	}
	st, err := NewStepper(cfg, agent, 1)
	if err != nil {
		t.Fatalf("NewStepper: %v", err)
	}
	for !st.Done() {
		if _, err := st.Step(StepInput{}); err != nil {
			t.Fatal(err)
		}
	}
	stepped, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stepped.CertifiedSteps != res.CertifiedSteps {
		t.Fatalf("NewStepper certified %d steps, RunEpisode %d", stepped.CertifiedSteps, res.CertifiedSteps)
	}

	t.Run("RunMultiCampaign", func(t *testing.T) {
		mcfg := DefaultMultiSimConfig()
		mcfg.Certify = certify
		_, err := RunMultiCampaign(mcfg, BuildMultiUltimate(sc, kn), 4, 1)
		if err == nil {
			t.Fatal("Certify accepted by the multi-vehicle engine")
		}
		if !strings.HasPrefix(err.Error(), "safeplan:") || !strings.Contains(err.Error(), "ertify") {
			t.Fatalf("unexpected error: %v", err)
		}
	})
}
