#include "core/ledger.hpp"

#include <cassert>
#include <stdexcept>

namespace mpleo::core {

Ledger::Ledger() {
  balances_.push_back(0.0);
  names_.push_back("treasury");
}

AccountId Ledger::open_account(std::string name) {
  const auto id = static_cast<AccountId>(balances_.size());
  balances_.push_back(0.0);
  names_.push_back(std::move(name));
  return id;
}

void Ledger::mint(double amount, const std::string& memo) {
  if (amount < 0.0) throw std::invalid_argument("Ledger::mint: negative amount");
  balances_[kTreasury] += amount;
  minted_ += amount;
  entries_.push_back({next_sequence_++, kTreasury, kTreasury, amount, memo});
  assert(sum_of_balances() <= minted_ + 1e-9);
}

bool Ledger::transfer(AccountId from, AccountId to, double amount, std::string memo) {
  if (amount < 0.0) throw std::invalid_argument("Ledger::transfer: negative amount");
  if (from >= balances_.size() || to >= balances_.size()) return false;
  if (balances_[from] + 1e-12 < amount) return false;
  balances_[from] -= amount;
  balances_[to] += amount;
  entries_.push_back({next_sequence_++, from, to, amount, std::move(memo)});
  return true;
}

bool Ledger::reward(AccountId to, double amount, std::string memo) {
  return transfer(kTreasury, to, amount, std::move(memo));
}

bool Ledger::credit_receipt(AccountId to, double amount, std::uint64_t receipt_hash,
                            std::string memo) {
  if (!credited_receipts_.insert(receipt_hash).second) return false;
  // Same payout semantics as verify_and_reward always had: an empty treasury
  // fails the transfer but the receipt stays consumed.
  (void)transfer(kTreasury, to, amount, std::move(memo));
  return true;
}

double Ledger::balance(AccountId account) const {
  if (account >= balances_.size()) throw std::out_of_range("Ledger::balance: unknown account");
  return balances_[account];
}

double Ledger::sum_of_balances() const noexcept {
  double sum = 0.0;
  for (double b : balances_) sum += b;
  return sum;
}

const std::string& Ledger::account_name(AccountId account) const {
  if (account >= names_.size()) {
    throw std::out_of_range("Ledger::account_name: unknown account");
  }
  return names_[account];
}

}  // namespace mpleo::core
