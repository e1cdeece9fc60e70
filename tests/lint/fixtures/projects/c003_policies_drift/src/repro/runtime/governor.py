"""C003 policy-drift fixture: the runtime grew a policy the schema missed."""

DVFS_POLICIES: tuple[str, ...] = ("static", "slack")
