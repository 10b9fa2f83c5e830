"""Test-campaign harness: hit-rate campaigns and the paper's tables/figures."""

from .artifact import (
    BugArtifact,
    ReplayReport,
    load_artifact,
    replay_artifact,
)
from .bench import (
    check_against_baseline,
    environment_fingerprint,
    run_bench,
)
from .coverage import (
    CoverageReport,
    behaviour_shape,
    coverage_campaign,
    execution_signature,
    weak_read_count,
)
from .campaign import (
    CampaignResult,
    TrialRecord,
    c11tester_factory,
    naive_factory,
    pct_factory,
    pctwm_factory,
    run_campaign,
    run_trial,
)
from .checkpoint import (
    TrialJournal,
    load_journal,
)
from .parallel import (
    CampaignProgress,
    print_progress,
    run_campaign_parallel,
    shutdown_pools,
)
from .watchdog import (
    HeartbeatBoard,
    Watchdog,
    WatchdogStats,
)
from .seeding import derive_trial_seed
from .figures import (
    Figure5Bar,
    Figure6Series,
    figure5,
    figure6,
    render_figure5,
    render_figure6,
)
from .charts import bar_chart, line_chart, line_charts
from .report import generate_report, write_report
from .stats import (
    mean,
    relative_stdev_pct,
    significantly_greater,
    stdev,
    two_proportion_z,
    wilson_interval,
)
from .tables import (
    Table1Row,
    Table2Row,
    Table3Row,
    Table4Row,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    table1,
    table2,
    table3,
    table4,
)

__all__ = [
    "BugArtifact",
    "CampaignProgress",
    "CampaignResult",
    "check_against_baseline",
    "environment_fingerprint",
    "run_bench",
    "HeartbeatBoard",
    "ReplayReport",
    "TrialJournal",
    "TrialRecord",
    "Watchdog",
    "WatchdogStats",
    "bar_chart",
    "load_artifact",
    "replay_artifact",
    "derive_trial_seed",
    "load_journal",
    "print_progress",
    "run_campaign_parallel",
    "run_trial",
    "shutdown_pools",
    "line_chart",
    "line_charts",
    "CoverageReport",
    "behaviour_shape",
    "coverage_campaign",
    "execution_signature",
    "weak_read_count",
    "Figure5Bar",
    "Figure6Series",
    "Table1Row",
    "Table2Row",
    "Table3Row",
    "Table4Row",
    "c11tester_factory",
    "figure5",
    "figure6",
    "generate_report",
    "mean",
    "naive_factory",
    "pct_factory",
    "pctwm_factory",
    "relative_stdev_pct",
    "render_figure5",
    "render_figure6",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "run_campaign",
    "significantly_greater",
    "stdev",
    "two_proportion_z",
    "table1",
    "table2",
    "table3",
    "table4",
    "wilson_interval",
    "write_report",
]
