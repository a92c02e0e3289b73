"""Evaluation harness: training, detection protocol, experiments, timing, figures.

The scanning service renders cached records through
:mod:`repro.eval.reporting` alone, so importing the package loads none of
the training and experiment modules: each name in ``__all__`` resolves
from its submodule on first access (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it, in ``__all__`` order.
_EXPORTS = {
    "SCALES": "experiments", "TABLE_CONFIGS": "experiments",
    "AttackSpec": "experiments", "CaseSpec": "experiments",
    "ExperimentConfig": "experiments", "ExperimentResult": "experiments",
    "ExperimentScale": "experiments", "CaseModelJob": "experiments",
    "FleetModelSummary": "experiments", "build_attack": "experiments",
    "case_scan_requests": "experiments", "case_scenario_id": "experiments",
    "default_source_classes": "experiments",
    "run_case_model_job": "experiments", "run_experiment": "experiments",
    "run_repair_sweep": "experiments", "scenario_grid_config": "experiments",
    "table1_config": "experiments", "table2_config": "experiments",
    "table3_config": "experiments", "table4_config": "experiments",
    "table5_config": "experiments", "table6_config": "experiments",
    "TriggerRecovery": "figures", "UAPComparison": "figures",
    "figure1_uap_vs_random": "figures",
    "figure5_per_class_triggers": "figures",
    "trigger_recovery_figure": "figures", "DetectionCaseSummary": "protocol",
    "ModelDetectionRecord": "protocol",
    "classify_target_detection": "protocol", "summarize_case": "protocol",
    "detection_table_columns": "reporting",
    "format_repair_records": "reporting", "format_rows": "reporting",
    "format_scan_records": "reporting", "format_table": "reporting",
    "repair_record_columns": "reporting", "repair_sweep_columns": "reporting",
    "scan_record_columns": "reporting", "ClassTiming": "timing",
    "TimingReport": "timing", "measure_detection_times": "timing",
    "TrainedModel": "trainer", "Trainer": "trainer",
    "TrainingConfig": "trainer", "evaluate_accuracy": "trainer",
    "evaluate_asr": "trainer",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
