// Double-entry token ledger mediating MP-LEO's financial exchanges (§3.2).
//
// Every value movement is a transfer between two accounts, so the invariant
//   sum(all balances) == total minted
// holds at all times and is checked in debug builds. Accounts cannot go
// negative: a transfer exceeding the payer's balance is rejected, which is
// how "participants with more satellites earn more" stays an accounting fact
// rather than an assumption.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace mpleo::core {

using AccountId = std::uint32_t;

struct LedgerEntry {
  std::uint64_t sequence = 0;
  AccountId from = 0;
  AccountId to = 0;
  double amount = 0.0;
  std::string memo;

  friend bool operator==(const LedgerEntry&, const LedgerEntry&) = default;
};

class Ledger {
 public:
  // The treasury (account 0) is created implicitly; tokens are minted into it.
  Ledger();

  AccountId open_account(std::string name);

  // Mints `amount` new tokens into the treasury. Precondition: amount >= 0.
  void mint(double amount, const std::string& memo = "mint");

  // Transfers; returns false (and records nothing) when the payer's balance
  // is insufficient or an account is unknown. Precondition: amount >= 0.
  [[nodiscard]] bool transfer(AccountId from, AccountId to, double amount,
                              std::string memo = {});

  // Treasury payout helper (rewards): treasury -> account.
  [[nodiscard]] bool reward(AccountId to, double amount, std::string memo = {});

  // Receipt-keyed treasury payout: pays exactly once per receipt hash.
  // Returns false (recording nothing) when `receipt_hash` was already
  // credited — the double-submission guard proof-of-coverage rides on. On
  // the first submission the hash is consumed even if the treasury cannot
  // cover the payout (a failed reward does not re-open the receipt).
  bool credit_receipt(AccountId to, double amount, std::uint64_t receipt_hash,
                      std::string memo = {});
  [[nodiscard]] bool receipt_credited(std::uint64_t receipt_hash) const {
    return credited_receipts_.contains(receipt_hash);
  }
  [[nodiscard]] std::size_t credited_receipt_count() const noexcept {
    return credited_receipts_.size();
  }

  [[nodiscard]] double balance(AccountId account) const;
  [[nodiscard]] double total_minted() const noexcept { return minted_; }
  [[nodiscard]] double sum_of_balances() const noexcept;
  [[nodiscard]] std::size_t account_count() const noexcept { return balances_.size(); }
  [[nodiscard]] const std::string& account_name(AccountId account) const;
  [[nodiscard]] const std::vector<LedgerEntry>& entries() const noexcept { return entries_; }

  static constexpr AccountId kTreasury = 0;

  friend bool operator==(const Ledger&, const Ledger&) = default;

 private:
  std::vector<double> balances_;
  std::vector<std::string> names_;
  std::vector<LedgerEntry> entries_;
  std::unordered_set<std::uint64_t> credited_receipts_;
  double minted_ = 0.0;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace mpleo::core
