"""C003 policy-drift fixture: a runtime tuple the schema agrees with."""

ADMISSION_POLICIES: tuple[str, ...] = ("none", "shed", "degrade")
