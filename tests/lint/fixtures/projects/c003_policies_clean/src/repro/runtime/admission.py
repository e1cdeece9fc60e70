"""C003 policy-clean fixture: the runtime tuple the schema mirrors."""

ADMISSION_POLICIES: tuple[str, ...] = ("none", "shed")
