package replica

import (
	"testing"

	"dledger/internal/core"
	"dledger/internal/telemetry"
)

// TestStageKindsMatch pins the correspondence apply relies on when it
// converts an engine StageAction's stage to a telemetry kind by value:
// core keeps its own import-free enum, so nothing but this test ties
// the two numberings together.
func TestStageKindsMatch(t *testing.T) {
	for stage, kind := range map[core.LifecycleStage]telemetry.Kind{
		core.StageDisperseStart:        telemetry.StageDisperseStart,
		core.StageDisperseDone:         telemetry.StageDisperseDone,
		core.StageBAInput:              telemetry.StageBAInput,
		core.StageRetrieveStart:        telemetry.StageRetrieveStart,
		core.StagePeerChunkSent:        telemetry.PeerChunkSent,
		core.StagePeerEcho:             telemetry.PeerEcho,
		core.StagePeerVote:             telemetry.PeerVote,
		core.StagePeerRetrieveReq:      telemetry.PeerRetrieveReq,
		core.StagePeerRetrieveResp:     telemetry.PeerRetrieveResp,
		core.StagePeerRetrieveUnwanted: telemetry.PeerRetrieveUnwanted,
	} {
		if telemetry.Kind(stage) != kind {
			t.Errorf("core stage %d converts to telemetry kind %s, want %s", stage, telemetry.Kind(stage), kind)
		}
	}
}
