"""Input format, built-in scenarios, odd-block search, reports, CLI."""
