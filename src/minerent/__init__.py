"""Resource-rent analysis engine and revenue-target concession simulator."""

__version__ = "0.1.0"

from .concession_sim import (
    AuctionError,
    Bidder,
    ConcessionOutcome,
    ConcessionState,
    ConcessionStatus,
    PricePathParams,
    StateMachineError,
    accrue_concessions,
    equilibrium_bid,
    expropriate,
    expropriation_indemnity,
    generate_price_path,
    new_concession,
    run_auction,
    simulate_concession,
    step_concession,
)
from .data_model import (
    DataFileError,
    DiscountSpec,
    MarketSeries,
    MarketYear,
    MineDataset,
    MineYearRecord,
    ParseError,
    PhysicalYear,
    SchemaError,
    ValidationIssue,
    ValidationReport,
    load_market_series,
    load_mine_dataset,
    validate_dataset,
    write_mine_dataset,
)
from .reconstruction import (
    BaselineStats,
    ExplorationImputation,
    InvalidDatasetError,
    ReconstructionError,
    compute_baseline_stats,
    impute_exploration,
    reconstruct_all,
    reconstruct_dataset,
)
from .rent_analysis import (
    RvpSeries,
    SensitivityReport,
    analyze_mine,
    rent_forward_value,
    rvp_series,
    sensitivity_report,
    write_plot_data,
    write_summary_table,
)
from .valuation import (
    PRESETS,
    CashFlowSeries,
    InitialInvestment,
    Rate,
    annual_cash_flow,
    as_rate,
    discount_rate,
    initial_investment,
    mine_cash_flows,
    present_value,
)
